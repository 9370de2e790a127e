package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// tally is what the clients of one timed phase did.
type tally struct {
	// lat holds each class's latencies and at, in step, when each of
	// those statements completed, measured from start. In a traced
	// phase lat holds the untraced statements and traced the others.
	lat       [nClass][]time.Duration
	at        [nClass][]time.Duration
	traced    [nClass][]time.Duration
	start     time.Time
	attempted int
	failed    int
	completed int
	elapsed   time.Duration
	failures  []string
}

func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
		t.at[c] = append(t.at[c], o.at[c]...)
		t.traced[c] = append(t.traced[c], o.traced[c]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.completed += o.completed
	if len(t.failures) < 10 {
		t.failures = append(t.failures, o.failures...)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// drive runs every client in a closed loop for d: each sends its next
// statement only after the previous reply has arrived and been checked.
func (e *env) drive(d time.Duration) *tally {
	start := time.Now()
	deadline := start.Add(d)
	total := &tally{start: start}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range e.streams {
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			t := &tally{start: start}
			for time.Now().Before(deadline) {
				e.step(s, t)
			}
			mu.Lock()
			total.merge(t)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// step sends the client's next statement.
func (e *env) step(s *stream, t *tally) { e.do(s, s.next(), t) }

// do sends one statement, times the round trip and checks the answer.
// A transport error, an error status and a wrong answer all count as a
// failed statement.
func (e *env) do(s *stream, o op, t *tally) {
	t.attempted++
	body, err := json.Marshal(struct {
		SQL    string `json:"sql"`
		Params []any  `json:"params,omitempty"`
	}{o.sql, o.params})
	if err != nil {
		t.fail("%s: %v", o.cls, err)
		return
	}
	// While tracing, a seeded coin traces half the statements, so
	// traced and untraced ones interleave in one phase.
	traced := e.tracer != nil && s.traceRng.Intn(2) == 1
	var id int64
	hdr := ""
	if traced {
		id = e.tracer.ids.Add(1)
		hdr = fmt.Sprintf("%d/%d", id, id)
	}
	begin := time.Now()
	raw, status, err := e.post(body, hdr)
	end := time.Now()
	lat := end.Sub(begin)
	if traced {
		e.tracer.record(id, id, 0, "http", begin, end)
	}
	if err != nil {
		t.fail("%s: %v", o.cls, err)
		return
	}
	r, err := decode(raw, status)
	if err != nil {
		t.fail("%s %q: %v", o.cls, o.sql, err)
		return
	}
	if msg := e.check(s, o, r); msg != "" {
		t.fail("%s %q %v: %s", o.cls, o.sql, o.params, msg)
		return
	}
	if o.write != nil {
		s.apply(o.write)
		if e.writes.Add(1)%checkpointEvery == 0 && !e.manualCheckpoints {
			begin := time.Now()
			if err := e.db.Checkpoint(); err != nil {
				t.fail("checkpoint: %v", err)
			}
			e.ckptMu.Lock()
			e.ckptLat = append(e.ckptLat, time.Since(begin))
			e.ckptMu.Unlock()
		}
	}
	if traced {
		t.traced[o.cls] = append(t.traced[o.cls], lat)
	} else {
		t.lat[o.cls] = append(t.lat[o.cls], lat)
		t.at[o.cls] = append(t.at[o.cls], end.Sub(t.start))
	}
	t.completed++
}

// check compares a reply with the statement's expected answer; it
// returns "" when they agree.
func (e *env) check(s *stream, o op, r *response) string {
	ref := e.refs
	var want [][]any
	switch o.cls {
	case cPoint, cLineRead:
		if o.idx == 1 {
			want = s.expectOrder(o.key, ref.orders.row(o.key))
		} else {
			want = ref.lines.rows(o.key)
		}
	case cRange:
		want = ref.ranges.rows(int64(o.idx))
	case cGroup:
		want = ref.groups.rows(int64(o.idx))
	case cAdhoc:
		want = ref.adhoc.rows(int64(o.idx))
	case cQ1, cQ3, cQ6, cQ10:
		want = ref.tpch.rows(int64(o.idx))
	case cRWRead:
		want = s.expectOrder(o.key, ref.orders.row(o.key))
	case cWrite:
		if r.RowsAffected != 1 {
			return fmt.Sprintf("%d rows affected, want 1", r.RowsAffected)
		}
		return ""
	}
	if want == nil {
		want = [][]any{}
	}
	return diffRows(r.Rows, want)
}

// slice returns the statements of t that completed in the i-th of n
// equal slices of its phase.
func (t *tally) slice(i, n int) *tally {
	lo, hi := t.elapsed*time.Duration(i)/time.Duration(n), t.elapsed*time.Duration(i+1)/time.Duration(n)
	s := &tally{elapsed: hi - lo}
	for c := range t.lat {
		for j, at := range t.at[c] {
			if at >= lo && at < hi {
				s.lat[c] = append(s.lat[c], t.lat[c][j])
				s.completed++
			}
		}
	}
	return s
}
