package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hique"
	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/types"
)

// rungs is one sampled read statement's median time in microseconds at
// each rung of the layer ladder, and at each preparation step.
//
// Each rung also reports its execution time — elapsed_us in a reply,
// Result.Elapsed from QueryInto — so a rung's overhead (its time minus
// its own execution) is taken within one call: on a 100 ms TPC-H query
// the difference of two separate executions would be mostly noise.
type rungs struct {
	loopback     float64 // POST /query over loopback HTTP
	loopbackExec float64 // execution inside that request
	handlerOver  float64 // the handler on an httptest recorder, minus its execution
	queryOver    float64 // DB.QueryInto minus its Result.Elapsed
	run          float64 // CompiledQuery.Run on a plan the ladder compiled
	parse        float64 // sql.NormalizeShape + sql.Parse
	build        float64 // plan.BuildWithOptions
	bind         float64 // Plan.BindInto
	generate     float64 // codegen.Generate
	emit         float64 // codegen.EmitSource
}

// ladderResult aggregates the ladder over the sample.
type ladderResult struct {
	rows []*rungs
	// calls extra DB.QueryInto calls made mallocs allocations and
	// queued morsels morsels.
	calls   int
	mallocs uint64
	morsels int64
	// touches statements of the headline class went through the plan
	// cache first-hand (as the traffic sends them); hits of them hit.
	touches, hits int
	computeStats  float64 // ms, catalog.ComputeStats on orders
	checkpoint    float64 // ms, DB.Checkpoint
}

func (l *ladderResult) sum(f func(*rungs) float64) float64 {
	t := 0.0
	for _, r := range l.rows {
		t += f(r)
	}
	return t
}

func (l *ladderResult) mean(f func(*rungs) float64) float64 {
	return ratio(l.sum(f), float64(len(l.rows)))
}

func (l *ladderResult) hitRatio() float64 { return ratio(float64(l.hits), float64(l.touches)) }

// isHeadline reports whether statements of class c make up the
// workload's headline metric.
func (s *spec) isHeadline(c class) bool {
	if s.headline >= 0 {
		return c == s.headline
	}
	return c >= cQ1 && c <= cQ10
}

// ladder replays ladderN statements of client 0's seeded sequence, one at
// a time. Each is first sent over loopback exactly as the traffic would
// send it (answer checked, plan-cache counters differenced for its
// class); a read then climbs the ladder ladderReps times: CompiledQuery.Run
// inside DB.QueryInto inside the handler inside loopback HTTP. A layer's
// cost is its rung's overhead minus the overhead of the rung below. Each rung
// execution is recorded as a span whose parent is the rung above, with
// the statement's request ID.
func (e *env) ladder(checked *tally) (*ladderResult, error) {
	spec := e.cfg.spec
	tr := e.tracer
	e.tracer = nil
	defer func() { e.tracer = tr }()
	reps := spec.ladderReps
	cat := e.db.Catalog()
	pool := morsel.NewPool(runtime.GOMAXPROCS(0))
	h := e.srv.Handler()
	res := &hique.Result{}
	out := &ladderResult{}
	s := e.streams[0]
	for i := 0; i < spec.ladderN; i++ {
		o := s.next()
		before := e.db.Stats()
		t := &tally{}
		e.do(s, o, t)
		checked.merge(t)
		after := e.db.Stats()
		if spec.isHeadline(o.cls) {
			bc, ac := before.Cache, after.Cache
			if o.write != nil {
				bc, ac = before.WriteCache, after.WriteCache
			}
			out.touches++
			if ac.Hits > bc.Hits && ac.Misses == bc.Misses {
				out.hits++
			}
		}
		if o.write != nil || t.failed > 0 {
			continue
		}
		body, err := json.Marshal(struct {
			SQL    string `json:"sql"`
			Params []any  `json:"params,omitempty"`
		}{o.sql, o.params})
		if err != nil {
			return nil, err
		}
		prep, cq, params, err := prepare(cat, pool, o, reps)
		if err != nil {
			return nil, fmt.Errorf("ladder %s %q: %w", o.cls, o.sql, err)
		}
		var lb, lbExec, hd, qi, rn []time.Duration
		req := tr.ids.Add(1)
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			raw, status, err := e.post(body, "")
			t1 := time.Now()
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("ladder loopback %q: status %d, %v", o.sql, status, err)
			}
			lbElapsed, err := replyElapsed(raw)
			if err != nil {
				return nil, err
			}
			idHTTP := tr.record(0, req, 0, "ladder.http", t0, t1)

			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			t2 := time.Now()
			h.ServeHTTP(rec, hreq)
			t3 := time.Now()
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("ladder handler %q: status %d", o.sql, rec.Code)
			}
			hdElapsed, err := replyElapsed(rec.Body.Bytes())
			if err != nil {
				return nil, err
			}
			idHandler := tr.record(0, req, idHTTP, "ladder.handler", t2, t3)

			t4 := time.Now()
			if err := e.db.QueryInto(res, o.sql, o.params...); err != nil {
				return nil, fmt.Errorf("ladder QueryInto %q: %w", o.sql, err)
			}
			t5 := time.Now()
			idQuery := tr.record(0, req, idHandler, "ladder.query_into", t4, t5)

			t6 := time.Now()
			tbl, err := cq.RunParams(params)
			t7 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("ladder Run %q: %w", o.sql, err)
			}
			tbl.Release()
			tr.record(0, req, idQuery, "ladder.run", t6, t7)

			lb = append(lb, t1.Sub(t0))
			lbExec = append(lbExec, lbElapsed)
			hd = append(hd, t3.Sub(t2)-hdElapsed)
			qi = append(qi, t5.Sub(t4)-res.Elapsed)
			rn = append(rn, t7.Sub(t6))
		}
		prep.loopback, prep.loopbackExec = medianUs(lb), medianUs(lbExec)
		prep.handlerOver, prep.queryOver, prep.run = medianUs(hd), medianUs(qi), medianUs(rn)
		out.rows = append(out.rows, prep)

		// Allocations and morsels of the same QueryInto calls, counted
		// apart from the timing because ReadMemStats stops the world.
		var m0, m1 runtime.MemStats
		_, mor0 := morsel.Stats()
		runtime.ReadMemStats(&m0)
		for rep := 0; rep < reps; rep++ {
			if err := e.db.QueryInto(res, o.sql, o.params...); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&m1)
		_, mor1 := morsel.Stats()
		out.calls += reps
		out.mallocs += m1.Mallocs - m0.Mallocs
		out.morsels += mor1 - mor0
	}

	entry, err := cat.Lookup("orders")
	if err != nil {
		return nil, err
	}
	var stats []time.Duration
	for rep := 0; rep < max(reps, 3); rep++ {
		entry.RLock()
		t0 := time.Now()
		catalog.ComputeStats(entry.Table)
		stats = append(stats, time.Since(t0))
		entry.RUnlock()
	}
	out.computeStats = medianUs(stats) / 1e3

	e.ckptMu.Lock()
	ckpt := append([]time.Duration(nil), e.ckptLat...)
	e.ckptMu.Unlock()
	if len(ckpt) == 0 {
		// No write triggered one (an in-memory workload, where it is a
		// no-op, or a run too short): time a direct call.
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if err := e.db.Checkpoint(); err != nil {
				return nil, err
			}
			ckpt = append(ckpt, time.Since(t0))
		}
	}
	out.checkpoint = medianUs(ckpt) / 1e3
	return out, nil
}

// replyElapsed reads the execution time the server reports in a reply.
func replyElapsed(raw []byte) (time.Duration, error) {
	var r struct {
		ElapsedUs int64 `json:"elapsed_us"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, fmt.Errorf("ladder reply: %w", err)
	}
	return time.Duration(r.ElapsedUs) * time.Microsecond, nil
}

// prepare runs the preparation pipeline of the plan-cache miss path by
// hand, timing each step reps times (medians in microseconds), and
// returns the compiled query with its bind vector.
func prepare(cat *catalog.Catalog, pool *morsel.Pool, o op, reps int) (*rungs, *codegen.CompiledQuery, []types.Datum, error) {
	var (
		r                  = &rungs{}
		pa, bu, bi, ge, em []time.Duration
		cq                 *codegen.CompiledQuery
		params             []types.Datum
		opts               = plan.DefaultOptions()
	)
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		shape, lits, err := sql.NormalizeShape(o.sql)
		if err != nil {
			return nil, nil, nil, err
		}
		stmt, err := sql.Parse(shape)
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		p, err := plan.BuildWithOptions(stmt, cat, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		t2 := time.Now()
		p.Pool = pool
		if params, err = bindArgs(p, lits, o.params); err != nil {
			return nil, nil, nil, err
		}
		sc := plan.GetBindScratch()
		t3 := time.Now()
		_, err = p.BindInto(sc, params)
		t4 := time.Now()
		plan.PutBindScratch(sc)
		if err != nil {
			return nil, nil, nil, err
		}
		t5 := time.Now()
		if cq, err = codegen.Generate(p, codegen.OptO2); err != nil {
			return nil, nil, nil, err
		}
		t6 := time.Now()
		codegen.EmitSource(p)
		t7 := time.Now()
		pa = append(pa, t1.Sub(t0))
		bu = append(bu, t2.Sub(t1))
		bi = append(bi, t4.Sub(t3))
		ge = append(ge, t6.Sub(t5))
		em = append(em, t7.Sub(t6))
	}
	r.parse, r.build, r.bind, r.generate, r.emit = medianUs(pa), medianUs(bu), medianUs(bi), medianUs(ge), medianUs(em)
	return r, cq, params, nil
}

// bindArgs builds a plan's bind vector the way the server does: lifted
// literals coerce to their slot's kind, explicit '?' placeholders take
// the statement's arguments in order.
func bindArgs(p *plan.Plan, lits []sql.Expr, args []any) ([]types.Datum, error) {
	out := make([]types.Datum, 0, len(p.Params))
	next := 0
	for i, slot := range p.Params {
		if i < len(lits) && lits[i] != nil {
			d, err := plan.LiteralDatum(lits[i], slot.Kind)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
			continue
		}
		if next >= len(args) {
			return nil, fmt.Errorf("plan wants more than %d arguments", len(args))
		}
		v := args[next]
		next++
		switch x := v.(type) {
		case int64:
			if slot.Kind == types.Float {
				out = append(out, types.FloatDatum(float64(x)))
			} else {
				out = append(out, types.Datum{Kind: slot.Kind, I: x})
			}
		case float64:
			out = append(out, types.FloatDatum(x))
		case string:
			out = append(out, types.StringDatum(x))
		default:
			return nil, fmt.Errorf("argument %v of type %T", v, v)
		}
	}
	return out, nil
}
