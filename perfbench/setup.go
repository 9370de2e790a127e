package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hique"
	"hique/internal/server"
	"hique/internal/tpch"
)

// config sizes one run. main fills it from the flags; the self-test
// shrinks it.
type config struct {
	spec    *spec
	seed    int64
	sf      float64
	seconds float64
	trace   bool
	// setupReps is how many times setup runs; setup_s is the median and
	// the last environment serves the run.
	setupReps int
	// workDir holds data directories and the span file.
	workDir string
	// corrupt damages one reference answer (self-test only).
	corrupt bool
}

// env is one served database: the catalogue behind hique.DB, the HTTP
// server on a loopback listener, and the clients' statement streams.
type env struct {
	cfg     *config
	world   *world
	db      *hique.DB
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	url     string
	client  *http.Client
	dir     string // durable data directory; "" in memory
	streams []*stream
	// handler is what the listener serves: the server's handler, wrapped
	// by the tracer in the traced phase.
	handler atomic.Pointer[http.Handler]
	tracer  *tracer
	refs    *refs
	warmed  *tally
	// writes counts acknowledged writes; every checkpointEvery-th
	// triggers DB.Checkpoint, whose durations land in ckptLat.
	writes  atomic.Int64
	ckptMu  sync.Mutex
	ckptLat []time.Duration
	// manualCheckpoints stops the count-triggered checkpoints while the
	// fixed WAL tail is written.
	manualCheckpoints bool
}

// setup builds the data in-process, opens the database (seeding the
// durable directory), builds the indexes, starts the server and warms
// every recurring statement shape, then collects garbage. Reference
// answers are not part of it; the warm-up's answers are checked against
// them.
func setup(cfg *config, w *world, ref *refs, rep int) (*env, error) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: cfg.sf, Seed: uint64(cfg.seed)})
	e := &env{cfg: cfg, world: w, refs: ref}
	var err error
	opts := []hique.Option{hique.WithCatalog(cat), hique.WithPlanCache(planCacheCap)}
	if cfg.spec.durable {
		e.dir = filepath.Join(cfg.workDir, fmt.Sprintf("data-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
		opts = append(opts, hique.WithFsync(hique.FsyncAlways), hique.WithCheckpointInterval(0),
			hique.WithDurabilityLogf(func(string, ...any) {}))
		e.db, err = hique.OpenDurable(e.dir, opts...)
		if err != nil {
			return nil, err
		}
	} else {
		e.db = hique.Open(opts...)
	}
	if cfg.spec.indexed {
		for _, ix := range [][2]string{{"lineitem", "l_orderkey"}, {"orders", "o_orderkey"}} {
			if err := e.db.BuildIndex(ix[0], ix[1]); err != nil {
				e.discard()
				return nil, err
			}
		}
	}
	if err := e.serve(); err != nil {
		e.discard()
		return nil, err
	}
	for i := 0; i < cfg.spec.clients; i++ {
		e.streams = append(e.streams, e.world.newStream(i))
	}
	e.warmed = e.warm()
	runtime.GC()
	return e, nil
}

// serve starts the server's handler on a loopback listener.
func (e *env) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(e.db, server.Config{})
	e.setHandler(e.srv.Handler())
	e.httpSrv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*e.handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
	return nil
}

func (e *env) setHandler(h http.Handler) { e.handler.Store(&h) }

// warm runs every recurring statement shape once per client, so timing
// starts with the plan cache and the connections warm. write-durable's
// warm-up also fills each client's window of live inserted keys. Its
// answers are checked like the timed ones.
func (e *env) warm() *tally {
	t := &tally{}
	w := e.world
	for _, s := range e.streams {
		switch e.cfg.spec.name {
		case "serve-mix":
			for _, o := range []op{
				{cls: cPoint, sql: sqlLinePoint, params: []any{int64(1)}, key: 1},
				{cls: cPoint, sql: sqlOrderPoint, params: []any{int64(1)}, key: 1, idx: 1},
				{cls: cRange, sql: sqlRange, params: []any{w.rangeLo[0], w.rangeLo[0] + rangeWidth}},
				{cls: cGroup, sql: sqlGroup, params: []any{w.groupLo[0], w.groupLo[0] + groupWidth}},
			} {
				e.do(s, o, t)
			}
		case "tpch-olap":
			for range tpchClasses {
				e.step(s, t)
			}
		case "write-durable":
			// An INSERT, a DELETE of that key, an UPDATE, each with the
			// read after it, and a lineitem read; then inserts until the
			// live window is full.
			ops := s.insertOps(nil)
			k := s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
			ops = s.lineReadOps(s.updateOps(s.deleteOps(ops, k)))
			for _, o := range ops {
				e.do(s, o, t)
			}
			for len(s.live) < liveInserts || len(s.pending) > 0 {
				e.step(s, t)
			}
		}
	}
	return t
}

// response is the POST /query body for both reads and writes.
type response struct {
	Columns      []string `json:"columns"`
	Rows         [][]any  `json:"rows"`
	RowsAffected int      `json:"rows_affected"`
	Error        string   `json:"error"`
}

// post is the round trip alone, the part a client waits for. A
// non-empty span header ties the server's handler span to the client's.
func (e *env) post(body []byte, spanHdr string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, e.url+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanHdr != "" {
		req.Header.Set(reqHeader, spanHdr)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return raw, resp.StatusCode, err
}

func decode(raw []byte, status int) (*response, error) {
	var r response
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("status %d: undecodable reply: %w", status, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, r.Error)
	}
	return &r, nil
}

// close stops the server, waits for it, and closes the database. A
// durable directory is left for the caller to remove.
func (e *env) close() error {
	var errs []error
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.client.CloseIdleConnections()
		e.httpSrv = nil
	}
	if e.db != nil {
		errs = append(errs, e.db.Close())
		e.db = nil
	}
	return errors.Join(errs...)
}

// discard closes the environment and removes its data directory.
func (e *env) discard() error {
	err := e.close()
	if e.dir != "" {
		err = errors.Join(err, os.RemoveAll(e.dir))
	}
	return err
}
