package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"hique"
)

// recovery is what reopening a copy of the data directory measured.
type recovery struct {
	seconds  float64
	replayed int64
	checked  int
}

// reopen ends a write-durable run. It checkpoints, logs a WAL tail of
// walTail writes, copies the data directory while the database is still
// open (as a crash would leave it), and opens the copy. Every write a
// client saw acknowledged must be visible in the copy and every
// acknowledged DELETE gone; each key checked counts as a statement and
// each violation as a failure.
func (e *env) reopen(t *tally) (recovery, error) {
	var rec recovery
	e.manualCheckpoints = true
	if err := e.db.Checkpoint(); err != nil {
		return rec, err
	}
	s := e.streams[0]
	tail := &tally{}
	for start := e.writes.Load(); e.writes.Load()-start < walTail; {
		e.step(s, tail)
		if tail.attempted > 8*walTail {
			return rec, fmt.Errorf("WAL tail: %d of %d writes acknowledged", e.writes.Load()-start, walTail)
		}
	}
	t.merge(tail)
	copyDir := e.dir + "-copy"
	defer os.RemoveAll(copyDir)
	if err := copyTree(e.dir, copyDir); err != nil {
		return rec, err
	}
	begin := time.Now()
	db, err := hique.OpenDurable(copyDir, hique.WithPlanCache(planCacheCap), hique.WithDurabilityLogf(func(string, ...any) {}))
	if err != nil {
		return rec, fmt.Errorf("reopen: %w", err)
	}
	rec.seconds = time.Since(begin).Seconds()
	rec.replayed = db.RecoveryStats().ReplayedRecords
	defer db.Close()
	for _, s := range e.streams {
		for key := range s.model {
			want := s.expectOrder(key, e.refs.orders.row(key))
			t.attempted++
			rec.checked++
			res, err := db.Query(sqlOrderPoint, key)
			if err != nil {
				t.fail("after reopen, key %d: %v", key, err)
				continue
			}
			if msg := diffRows(jsonCells(res.Rows), want); msg != "" {
				t.fail("after reopen, key %d: %s", key, msg)
			}
		}
	}
	return rec, nil
}

// jsonCells converts in-process result cells to what a JSON client
// decodes, so diffRows applies unchanged.
func jsonCells(rows [][]any) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = make([]any, len(row))
		for j, v := range row {
			if n, ok := v.(int64); ok {
				v = float64(n)
			}
			out[i][j] = v
		}
	}
	return out
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
