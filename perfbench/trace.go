package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hique"
)

// span is one timed call into a layer. Spans of one statement share
// Req; Parent is the ID of the span of the next layer out.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a span; id 0 draws a fresh ID.
func (tr *tracer) record(id, req, parent int64, name string, start, end time.Time) int64 {
	if id == 0 {
		id = tr.ids.Add(1)
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
	tr.mu.Unlock()
	return id
}

// reqHeader carries the request ID and the client span's reserved ID
// from the client to the server-side handler span.
const reqHeader = "X-Perfbench-Span"

// wrap returns h with a "handler" span around every request that
// carries reqHeader; other requests pass straight through.
func (tr *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(reqHeader)
		var req, parent int64
		if hdr != "" {
			if _, err := fmt.Sscanf(hdr, "%d/%d", &req, &parent); err != nil {
				hdr = ""
			}
		}
		if hdr == "" {
			h.ServeHTTP(w, r)
			return
		}
		begin := time.Now()
		h.ServeHTTP(w, r)
		tr.record(0, req, parent, "handler", begin, time.Now())
	})
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanSelf is the mean, over spans named name, of each span's duration
// minus the part of it that its child spans cover.
func (tr *tracer) meanSelf(name string) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range tr.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var total time.Duration
	n := 0
	for _, s := range tr.spans {
		if s.Name == name {
			total += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64
	end = p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// counters snapshots every counter the per-layer metrics difference.
type counters struct {
	db       hique.DBStats
	mem      runtime.MemStats
	rejected uint64
}

func (e *env) counters() (counters, error) {
	var c counters
	c.db = e.db.Stats()
	runtime.ReadMemStats(&c.mem)
	resp, err := e.client.Get(e.url + "/stats")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	var st struct {
		Rejected uint64 `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return c, fmt.Errorf("GET /stats: %w", err)
	}
	c.rejected = st.Rejected
	return c, nil
}

// traced is the --trace 1 run. It drives the workload for the whole
// run with tracing on, and each client traces a seeded half of its
// statements, so traced and untraced statements interleave: their
// difference is the tracing overhead, and a slow phase of the host
// lands on both alike. A traced statement gets a client span around its
// loopback round trip and a server span around the handler, nested by
// request ID. The phase's counter deltas give the per-layer counts; the
// layer ladder (ladder.go) follows.
func traced(e *env, checked *tally, m map[string]metric, log io.Writer) error {
	spec := e.cfg.spec
	e.tracer = newTracer()
	defer func() { e.tracer = nil }()
	e.setHandler(e.tracer.wrap(e.srv.Handler()))
	before, err := e.counters()
	if err != nil {
		return err
	}
	b := e.drive(time.Duration(e.cfg.seconds * float64(time.Second)))
	after, err := e.counters()
	if err != nil {
		return err
	}
	e.setHandler(e.srv.Handler())
	checked.merge(b)
	report(log, b)
	untraced, tracedSet := &tally{lat: b.lat}, &tally{lat: b.traced}
	wire := e.tracer.meanSelf("http")

	lad, err := e.ladder(checked)
	if err != nil {
		return err
	}
	path := filepath.Join(e.cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", spec.name, e.cfg.seed))
	if err := e.tracer.write(path); err != nil {
		return err
	}
	fmt.Fprintf(log, "%d spans written to %s\n", len(e.tracer.spans), path)

	cd, ca := before.db, after.db
	reads := float64(ca.Cache.Hits + ca.Cache.Misses - cd.Cache.Hits - cd.Cache.Misses)
	writes := float64(len(b.lat[cWrite]) + len(b.traced[cWrite]))
	ops := float64(b.completed)
	serverSelf := func(r *rungs) float64 { return r.handlerOver - r.queryOver }
	loopback := func(r *rungs) float64 { return r.loopback }

	m["wire_us"] = metric{float64(wire) / 1e3, "us"}
	m["handler_us"] = metric{lad.mean(serverSelf), "us"}
	m["server_share"] = metric{ratio(lad.sum(serverSelf), lad.sum(loopback)), "ratio"}
	m["pool_rejects"] = metric{float64(after.rejected - before.rejected), "count"}
	m["db_overhead_us"] = metric{lad.mean(func(r *rungs) float64 { return r.queryOver }), "us"}
	m["allocs_per_query"] = metric{ratio(float64(lad.mallocs), float64(lad.calls)), "count"}
	m["parse_us"] = metric{lad.mean(func(r *rungs) float64 { return r.parse }), "us"}
	m["plan_build_us"] = metric{lad.mean(func(r *rungs) float64 { return r.build }), "us"}
	m["bind_ns"] = metric{1000 * lad.mean(func(r *rungs) float64 { return r.bind }), "ns"}
	m["generate_us"] = metric{lad.mean(func(r *rungs) float64 { return r.generate }), "us"}
	m["emit_source_us"] = metric{lad.mean(func(r *rungs) float64 { return r.emit }), "us"}
	m["run_us"] = metric{lad.mean(func(r *rungs) float64 { return r.run }), "us"}
	m["run_share"] = metric{ratio(lad.sum(func(r *rungs) float64 { return r.loopbackExec }), lad.sum(loopback)), "ratio"}
	m["morsels_per_query"] = metric{ratio(float64(lad.morsels), float64(lad.calls)), "count"}
	m["headline_hit_ratio"] = metric{lad.hitRatio(), "ratio"}
	m["cache_hit_ratio"] = metric{ratio(float64(ca.Cache.Hits-cd.Cache.Hits), reads), "ratio"}
	m["prepares_per_op"] = metric{ratio(float64(ca.Cache.Misses-cd.Cache.Misses), ops), "count"}
	m["invalidations_per_write"] = metric{ratio(float64(ca.Cache.Invalidations-cd.Cache.Invalidations), writes), "count"}
	m["evictions_per_op"] = metric{ratio(float64(ca.Cache.Evictions-cd.Cache.Evictions), ops), "count"}
	m["compute_stats_ms"] = metric{lad.computeStats, "ms"}
	m["arena_pages_in_use"] = metric{float64(ca.Arena.PagesInUse), "count"}
	m["arena_recycled_per_op"] = metric{ratio(float64(ca.Arena.PagesRecycled-cd.Arena.PagesRecycled), ops), "count"}
	var fsyncs, records, walBytes float64
	if cd.Durability != nil && ca.Durability != nil {
		fsyncs = float64(ca.Durability.Fsyncs - cd.Durability.Fsyncs)
		records = float64(ca.Durability.WALRecords - cd.Durability.WALRecords)
		walBytes = float64(ca.Durability.WALBytes - cd.Durability.WALBytes)
	}
	m["fsyncs_per_write"] = metric{ratio(fsyncs, writes), "count"}
	m["records_per_fsync"] = metric{ratio(records, fsyncs), "count"}
	m["wal_bytes_per_row"] = metric{ratio(walBytes, records), "B"}
	m["checkpoint_ms"] = metric{lad.checkpoint, "ms"}
	m["gc_cycles"] = metric{float64(after.mem.NumGC - before.mem.NumGC), "count"}
	m["gc_pause_ms"] = metric{float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"}
	m["tail_us"] = metric{headline(spec, untraced, spec.tailPct), "us"}
	m["trace_overhead_us"] = metric{headline(spec, tracedSet, spec.latencyPct) - headline(spec, untraced, spec.latencyPct), "us"}
	return nil
}
