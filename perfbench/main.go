// Command perfbench is HIQUE's end-to-end benchmark. It generates TPC-H
// data in-process from the seed, serves it through internal/server's
// handler on a loopback listener, drives one of the workloads in
// workloads.go with closed-loop HTTP clients, checks every answer, and
// prints one JSON line of metrics:
//
//	go run . --workload serve-mix --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured without
// tracing. With --trace 1 it runs the workload again with spans around
// the benchmark's own calls into each layer and prints the per-layer
// metrics (trace.go). README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line a run prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: serve-mix, tpch-olap or write-durable")
	seed := flag.Int64("seed", 1, "seed of the generated data and statements")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	s, err := specByName(*workload)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-mix|tpch-olap|write-durable, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	if s.procs > 0 {
		runtime.GOMAXPROCS(s.procs)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := &config{
		spec:      s,
		seed:      *seed,
		sf:        s.sf,
		seconds:   *seconds,
		trace:     *trace == 1,
		setupReps: 5,
		workDir:   filepath.Join(root, ".bench_build", "perfbench"),
	}
	st := hostStamp(root)
	host, _ := json.Marshal(st)
	fmt.Printf("host %s\n", host)
	out, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and returns its result line; log gets
// the human-readable detail.
func run(cfg *config, log io.Writer) (*output, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorld(cfg.spec, cfg.seed, cfg.sf)
	if err != nil {
		return nil, err
	}
	ref, err := buildRefs(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("reference answers: %w", err)
	}
	if cfg.corrupt {
		corrupt(ref)
	}
	freeMemory()

	checked := &tally{}
	var setups []float64
	var e *env
	for rep := 0; rep < cfg.setupReps; rep++ {
		if e != nil {
			if err := e.discard(); err != nil {
				return nil, err
			}
			freeMemory()
		}
		begin := time.Now()
		e, err = setup(cfg, w, ref, rep)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
		checked.merge(e.warmed)
	}
	defer e.discard()
	freeMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(log, "%s (%s)\nseed %d: sf %g, %d clients, live heap %.1f MiB, setup %v s\n",
		cfg.spec.name, cfg.spec.why, cfg.seed, cfg.sf, cfg.spec.clients, float64(ms.HeapAlloc)/(1<<20), setups)

	out := &output{Metrics: map[string]metric{}}
	if cfg.trace {
		if err := traced(e, checked, out.Metrics, log); err != nil {
			return nil, err
		}
	} else {
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("mem_mb: %w", err)
		}
		cpu0 := cpuTime()
		t := e.drive(time.Duration(cfg.seconds * float64(time.Second)))
		fmt.Fprintf(log, "timed phase used %.2f CPUs\n", (cpuTime()-cpu0).Seconds()/t.elapsed.Seconds())
		mem, err := peakRSSMiB()
		if err != nil {
			return nil, fmt.Errorf("mem_mb: %w", err)
		}
		checked.merge(t)
		report(log, t)
		m := out.Metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["mem_mb"] = metric{mem, "MiB"}
		pct := cfg.spec.latencyPct
		var qps, lat []float64
		for i := 0; i < cfg.spec.slices; i++ {
			s := t.slice(i, cfg.spec.slices)
			qps = append(qps, float64(s.completed)/s.elapsed.Seconds())
			lat = append(lat, headline(cfg.spec, s, pct))
		}
		fmt.Fprintf(log, "whole run: ops_per_s %.2f latency_us %.2f\n", float64(t.completed)/t.elapsed.Seconds(), headline(cfg.spec, t, pct))
		fmt.Fprintf(log, "slices: ops_per_s %.1f\nslices: latency_us %.1f\n", qps, lat)
		m["ops_per_s"] = metric{median(qps), "1/s"}
		m["latency_us"] = metric{median(lat), "us"}
	}
	if cfg.spec.durable {
		rec, err := e.reopen(checked)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "recovery: %.4f s, %d WAL records replayed, %d keys checked\n", rec.seconds, rec.replayed, rec.checked)
		if cfg.trace {
			out.Metrics["replayed_records"] = metric{float64(rec.replayed), "count"}
		}
	} else if cfg.trace {
		out.Metrics["replayed_records"] = metric{0, "count"}
	}
	out.Attempted, out.Failed = checked.attempted, checked.failed
	out.Correct = checked.failed == 0
	for _, f := range checked.failures {
		fmt.Fprintln(log, "FAIL", f)
	}
	return out, nil
}

// headline is the workload's headline latency at pct in microseconds:
// that of its headline class, or for tpch-olap the geometric mean over
// the four queries of each query's own percentile.
func headline(s *spec, t *tally, pct float64) float64 {
	if s.headline >= 0 {
		return percentile(t.lat[s.headline], pct)
	}
	var xs []float64
	for _, tc := range tpchClasses {
		xs = append(xs, percentile(t.lat[tc.c], pct))
	}
	return geomean(xs)
}

// report logs each class's sample count and percentiles, those of
// traced statements apart.
func report(log io.Writer, t *tally) {
	fmt.Fprintf(log, "%d statements in %.2f s, %d failed\n", t.attempted, t.elapsed.Seconds(), t.failed)
	for _, set := range []struct {
		tag string
		lat *[nClass][]time.Duration
	}{{"", &t.lat}, {" traced", &t.traced}} {
		for c := class(0); c < nClass; c++ {
			if n := len(set.lat[c]); n > 0 {
				fmt.Fprintf(log, "  %-16s n=%-7d", c.String()+set.tag, n)
				for _, p := range []float64{10, 25, 50, 75, 90, 99} {
					fmt.Fprintf(log, "  p%g=%.1f", p, percentile(set.lat[c], p))
				}
				fmt.Fprintf(log, "  mean=%.1f us\n", meanUs(set.lat[c]))
			}
		}
	}
}

// corrupt damages reference answers every workload checks early on, so
// the self-test can see a wrong answer counted as a failure.
func corrupt(r *refs) {
	if rows := r.tpch.rows(1); len(rows) > 0 {
		rows[0][0] = "corrupted"
		r.tpch.add(1, rows)
	}
	if rows := r.ranges.rows(0); len(rows) > 0 {
		rows[0][0] = int64(-1)
		r.ranges.add(0, rows)
	}
	for _, k := range r.orders.keys() {
		rows := r.orders.rows(k)
		rows[0][0] = int64(-1)
		r.orders.add(k, rows)
	}
}
