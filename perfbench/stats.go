package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank percentile of ds in microseconds.
func percentile(ds []time.Duration, pct float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(pct/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Microsecond)
}

func meanUs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(float64(sum)/float64(time.Microsecond), float64(len(ds)))
}

func medianUs(ds []time.Duration) float64 { return percentile(ds, 50) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// freeMemory returns garbage to the OS so one setup's leftovers do not
// count towards the next phase's resident set.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// mem_mb covers the timed phase alone.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// stamp identifies the code and the host of a run: numbers from
// different hosts or code are never compared. Source is a digest of the
// Go sources, so it tells apart trees that Commit (empty outside a git
// work tree) would not, uncommitted changes included.
type stamp struct {
	Commit     string `json:"commit,omitempty"`
	Source     string `json:"source"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostStamp(root string) stamp {
	return stamp{
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
}

// gitCommit is the commit checked out at root when root is the top of a
// git work tree, and "" otherwise.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return ""
	}
	top, commit, ok := strings.Cut(strings.TrimSpace(string(out)), "\n")
	if !ok || filepath.Clean(top) != filepath.Clean(root) {
		return ""
	}
	return commit
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources under root, skipping directories
// whose names start with a dot (build output among them).
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
