// Package server is the campaign service: a long-running HTTP server
// over the campaign engine, the multi-user counterpart of the one-shot
// CLIs. Concurrent users POST v1 study-spec JSON (decoded by
// campaign.DecodeStudy — the service and the CLIs share one format by
// construction), browse the scenario registry, watch per-point results
// stream live over SSE or chunked JSONL, and fetch final digests.
//
// Production concerns are the point of the package:
//
//   - Admission: a bounded queue of submitted studies. When it is full
//     the service answers 429 with Retry-After instead of accepting
//     unbounded work; while draining it answers 503.
//   - Worker budgets: at most MaxActive studies execute concurrently,
//     each on an equal share of one shared worker pool — a
//     million-point study occupies its slot and its share, it cannot
//     starve the small studies running beside it.
//   - Streaming: every study, local or fleet, folds through a lease
//     ledger (internal/shard), in deterministic point order, and the
//     ledger is its result log: any number of subscribers replay its
//     folded lines and follow the fold. The JSONL stream is
//     byte-identical to the same study run in process: json.Marshal of
//     each result campaign.RunCollect returns, one per line.
//   - Result cache: a content-addressed LRU (campaign.PointHash of the
//     frozen point — engine, spec, materialized seed — to the encoded
//     shard record), with a cache directory (OpenCacheDir) the hot tier
//     over one append-only record file, serves repeated points instead
//     of resimulating them, with hit/miss/eviction telemetry in
//     internal/obs. A study looks each point up once, before anything
//     runs, and settles every hit in its ledger as the stored record's
//     result line with the study's identity spliced in
//     (campaign.ResultLine); only the misses run on the slot's workers
//     (campaign.RunRecords, whose records fill the cache) or are leased
//     to fleet workers. Determinism makes this transparent: a hit
//     changes no result bit, only the time to produce it.
//   - Graceful shutdown: Shutdown stops admission, lets running studies
//     drain, and past the deadline cancels them through the same ctx
//     plumbing that reaches every replica loop.
package server

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ctsan/campaign"
	"ctsan/internal/cliflags"
	"ctsan/internal/obs"
	"ctsan/internal/parallel"
	"ctsan/internal/scenario"
	"ctsan/internal/shard"
)

// Config sizes the service; the zero value gets sensible defaults.
type Config struct {
	// Workers is the shared worker-pool budget split across concurrently
	// running studies (0 = one per CPU).
	Workers int
	// MaxActive is the number of studies executing at once (default 2).
	MaxActive int
	// QueueDepth bounds studies admitted but not yet running (default
	// 16); beyond it submissions get 429.
	QueueDepth int
	// CacheBytes bounds the content-addressed result cache (default
	// 64 MiB); negative disables caching.
	CacheBytes int64
	// DefaultSeed seeds submissions that do not pin one (default 1).
	DefaultSeed uint64
	// LeaseTTL is how long a fleet lease lives without renewal before its
	// range is re-leased (default 15s).
	LeaseTTL time.Duration
	// Debug mounts /debug/vars and /debug/pprof on the service mux.
	Debug bool
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.MaxActive <= 0 {
		c.MaxActive = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DefaultSeed == 0 {
		c.DefaultSeed = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// study is the server-side state of one submission. Everything but its
// id, hashes, ledger, sizer, end and the fields under mu is fixed at
// admission — and may be shared with the studies submitted with the same
// spec bytes (Server.specs).
type study struct {
	id       string
	spec     *campaign.Study // as decoded
	specText string
	seed     uint64
	replicas int
	workers  int
	// frozen is spec frozen under seed and replicas — the grid the study
	// runs — points enumerates it and hashes are its point hashes.
	frozen    *campaign.Study
	points    []campaign.FrozenPoint
	hashes    []string
	submitted time.Time
	// ledger settles the study's points, folds them in grid order and
	// keeps the folded result lines: it is the study's result log.
	// fleet marks a study whose points the cache does not hold are
	// leased to external workers rather than run on the slot's workers;
	// sizer is its lease-size policy.
	ledger *shard.Ledger
	fleet  bool
	sizer  *leaseSizer
	// end closes once the study is terminal, after status and errMsg
	// have their final values: past it they are read without mu.
	end chan struct{}

	mu       sync.Mutex
	status   string // "queued", "running", "done", "failed", "canceled"
	errMsg   string
	hits     int64
	misses   int64
	started  time.Time
	finished time.Time
}

// Status is the wire shape of one study's state.
type Status struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	Points   int    `json:"points"`
	Done     int    `json:"done"`
	Seed     uint64 `json:"seed"`
	Replicas int    `json:"replicas,omitempty"`
	// Workers is the per-study budget carved from the shared pool (0 for
	// fleet studies, which external workers execute).
	Workers     int    `json:"workers"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Submitted   string `json:"submitted"`
	Started     string `json:"started,omitempty"`
	Finished    string `json:"finished,omitempty"`
	// Mode is "local" (the service's own pool) or "fleet" (pull-based
	// workers); Fleet carries the live lease ledger of a fleet study.
	Mode  string       `json:"mode"`
	Fleet *FleetStatus `json:"fleet,omitempty"`
}

func (st *study) snapshot() Status {
	st.mu.Lock()
	s := Status{
		ID:          st.id,
		Name:        st.spec.Name,
		Status:      st.status,
		Error:       st.errMsg,
		Points:      len(st.points),
		Seed:        st.seed,
		Replicas:    st.replicas,
		Workers:     st.workers,
		CacheHits:   st.hits,
		CacheMisses: st.misses,
		Submitted:   st.submitted.UTC().Format(time.RFC3339Nano),
		Mode:        "local",
	}
	if !st.started.IsZero() {
		s.Started = st.started.UTC().Format(time.RFC3339Nano)
	}
	if !st.finished.IsZero() {
		s.Finished = st.finished.UTC().Format(time.RFC3339Nano)
	}
	st.mu.Unlock()
	// Read after the status, outside st.mu (a leaf lock): a study's
	// progress is what its ledger has folded, and it turns "done" only
	// after the last line has been.
	lines, _ := st.ledger.Lines(0)
	s.Done = len(lines)
	if st.fleet {
		fs := st.ledger.Stats()
		s.Mode, s.Fleet = "fleet", &fs
	}
	return s
}

func (st *study) setRunning() {
	st.mu.Lock()
	st.status = "running"
	st.started = time.Now()
	st.mu.Unlock()
}

func (st *study) setFinished(err error) {
	st.mu.Lock()
	st.finished = time.Now()
	switch {
	case err == nil:
		st.status = "done"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st.status = "canceled"
		st.errMsg = err.Error()
	default:
		st.status = "failed"
		st.errMsg = err.Error()
	}
	st.mu.Unlock()
	close(st.end)
}

// newLedger builds the study's ledger; a fleet study's leases are sized
// by a leaseSizer.
func (st *study) newLedger(ttl time.Duration) {
	st.hashes = make([]string, len(st.points))
	for i, fp := range st.points {
		st.hashes[i] = fp.Hash
	}
	var size func(int, int) int
	if st.fleet {
		st.sizer = &leaseSizer{}
		size = st.sizer.size
	}
	st.ledger = shard.NewLedger(st.hashes, ttl, size)
}

// preload looks every point of the study up in the cache, once, before
// anything runs. A hit settles in the ledger as the stored record's
// result line with this study's identity spliced in — content-addressed
// statistics under this study's name, label and index, so the stream
// stays byte-identical to a cold run. What is left, the misses, is
// returned in grid order for the study to run or lease; a record that
// does not splice is one of them. A disabled cache is not looked up, so
// it counts no misses.
func (st *study) preload(cache *Cache) (misses []int) {
	if cache == nil {
		misses = make([]int, len(st.points))
		for i := range misses {
			misses[i] = i
		}
		return misses
	}
	for i, fp := range st.points {
		if record, ok := cache.Get(fp.Hash); ok {
			if line, ok := campaign.ResultLine(record, st.spec.Name, fp.Label, i); ok {
				st.ledger.Settle(i, line)
				continue
			}
		}
		misses = append(misses, i)
	}
	hits := len(st.points) - len(misses)
	obs.CacheHits.Add(int64(hits))
	obs.CacheMisses.Add(int64(len(misses)))
	st.mu.Lock()
	st.hits, st.misses = int64(hits), int64(len(misses))
	st.mu.Unlock()
	return misses
}

// Server is the campaign service. Create with New, serve with
// HTTPServer, stop with Shutdown.
type Server struct {
	cfg    Config
	budget int // per-study worker budget
	mux    *http.ServeMux
	cache  *Cache

	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup // slot goroutines

	mu      sync.Mutex
	studies map[string]*study
	order   []string
	// specs indexes the retained studies by their spec bytes: per
	// distinct spec, the first study admitted under each distinct seed
	// and replica count. A resubmission of the same bytes reuses the
	// decoded spec from it, and the frozen grid too when the seed and
	// replica count match. An entry lives as long as its study.
	specs    map[string][]*study
	queue    chan *study
	nextID   int
	draining bool
	// instance is a random tag of this process, part of every study id:
	// a daemon restarted on the same address numbers its studies from 1
	// again, and without the tag a fleet worker would take the new
	// s000001 for the old one (and its cached grid).
	instance uint32

	shutdownOnce sync.Once

	// testGate, when non-nil, blocks each study after it turns running
	// until the gate closes (or the run context is canceled). Test-only:
	// it lets tests hold studies "running" deterministically to exercise
	// queue admission and shutdown without timing assumptions.
	testGate chan struct{}
	// testRecord, when non-nil, sees the point hash of every record a
	// local study computes, on the pool worker that ran the point.
	// Test-only: it counts executions, and one that panics is how tests
	// make one point of one study blow up inside the worker pool.
	testRecord func(hash string)
}

// New builds the service and starts its MaxActive scheduler slots.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		budget:   max(1, parallel.Workers(cfg.Workers)/cfg.MaxActive),
		cache:    NewCache(cfg.CacheBytes),
		studies:  map[string]*study{},
		specs:    map[string][]*study{},
		queue:    make(chan *study, cfg.QueueDepth),
		instance: rand.Uint32(),
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	s.mux = s.routes()
	for i := 0; i < cfg.MaxActive; i++ {
		s.wg.Add(1)
		go s.slot()
	}
	return s
}

// The limits of the http.Server the service is served with
// (HTTPServer): a client's request headers must arrive within
// readHeaderTimeout and fit in maxHeaderBytes, and a keep-alive
// connection idle for idleTimeout is closed, so a client that opens
// connections and never finishes its headers holds nothing for long.
// Nothing bounds a request once its headers are in, nor a response: a
// /results or /events stream lasts as long as its study, and an upload
// may carry maxUploadBytes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// HTTPServer returns the http.Server to serve the service with: its
// handler under the limits above, and no write or whole-request read
// timeout.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// OpenCacheDir puts the enabled point cache over its record file in dir
// (ctsand's -cache-dir) and returns how many records the file holds;
// Shutdown fsyncs and closes it.
func (s *Server) OpenCacheDir(dir string) (records int, err error) {
	if s.cache == nil {
		return 0, errors.New("the point cache is disabled")
	}
	if records, err = s.cache.open(dir); err == nil {
		s.cfg.Logf("cache: %d records in %s", records, dir)
	}
	return records, err
}

// Shutdown stops admission (submissions get 503), waits for queued and
// running studies to drain, and once ctx is done cancels the remainder
// through the campaign ctx plumbing — every replica loop observes the
// cancellation at its next unit boundary. It returns after all studies
// have reached a terminal status, so every subscriber's stream has an
// end. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		// No sends can follow: submissions check draining under s.mu
		// before enqueueing, so closing here cannot race a send.
		close(s.queue)
	})
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		s.cfg.Logf("shutdown deadline reached, canceling running studies")
		s.cancelRun()
		<-drained
	}
	s.cancelRun() // release the context either way
	if err := s.cache.close(); err != nil {
		s.cfg.Logf("cache: final sync failed: %v", err)
		return err
	}
	return nil
}

// slot is one scheduler goroutine: it owns one MaxActive slot and runs
// queued studies sequentially on the slot's worker budget.
func (s *Server) slot() {
	defer s.wg.Done()
	for st := range s.queue {
		obs.QueueDepth.Add(-1)
		s.runStudy(st)
	}
}

// runStudy is a study's slot occupancy, in either mode: the preload
// settles every point the cache holds, then the misses run on the slot's
// worker budget (local) or are leased to fleet workers (fleet), and the
// study's ledger folds each settled point in grid order. A
// fleet study leaves the slot's workers idle: it costs the coordinator
// verification and folding only.
func (s *Server) runStudy(st *study) {
	obs.StudiesActive.Add(1)
	defer obs.StudiesActive.Add(-1)
	misses := st.preload(s.cache)
	st.setRunning() // leases are granted only from "running"
	if s.testGate != nil {
		select {
		case <-s.testGate:
		case <-s.runCtx.Done():
		}
	}
	var err error
	if st.fleet {
		s.cfg.Logf("study %s (%q): fleet dispatch of %d points (%d cache-served)", st.id, st.spec.Name, len(st.points), len(st.points)-len(misses))
		err = s.awaitLeases(st)
	} else {
		s.cfg.Logf("study %s (%q): running %d of %d points on %d workers", st.id, st.spec.Name, len(misses), len(st.points), st.workers)
		err = s.runContained(st, misses)
	}
	st.setFinished(err)
	final := st.snapshot()
	switch {
	case err != nil:
		s.cfg.Logf("study %s: %s (%v)", st.id, final.Status, err)
	case st.fleet:
		s.cfg.Logf("study %s: done (%d points, %d leases granted, %d completed, %d expired)",
			st.id, final.Points, final.Fleet.Granted, final.Fleet.Completed, final.Fleet.Expired)
	default:
		s.cfg.Logf("study %s: done (%d points, %d cache hits)", st.id, final.Points, final.CacheHits)
	}
}

// runContained runs a local study's misses on the slot's worker budget,
// as the sub-study campaign.RunRecords makes of them, with a panicking
// work unit contained to the study it belongs to. Submissions are
// validated at freeze, so a panic inside the pool is an engine bug, not
// bad input — but the daemon is shared: one tenant's study hitting it
// must end "failed", naming the unit, while every other study keeps
// running. Anything that is not a pool unit's panic is re-raised
// untouched.
func (s *Server) runContained(st *study, misses []int) (err error) {
	if len(misses) == 0 {
		return nil
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		up, ok := r.(*parallel.UnitPanic)
		if !ok {
			panic(r)
		}
		s.cfg.Logf("study %s: %v", st.id, up)
		err = fmt.Errorf("work unit %d panicked: %v", up.Index, up.Value)
	}()
	return campaign.RunRecords(s.runCtx, st.frozen, st.hashes, misses, func(index int, record []byte) error {
		return s.settleRecord(st, index, record)
	}, campaign.WithWorkers(st.workers))
}

// settleRecord takes the record of a point a local study computed, on
// the pool worker that ran it: the record goes to the cache, and its
// result line, identified as this study's point, settles in the ledger.
func (s *Server) settleRecord(st *study, index int, record []byte) error {
	fp := &st.points[index]
	if s.testRecord != nil {
		s.testRecord(fp.Hash)
	}
	line, ok := campaign.ResultLine(record, st.spec.Name, fp.Label, index)
	if !ok {
		return fmt.Errorf("record of point %d is not laid out as campaign writes records", index)
	}
	s.cache.Put(fp.Hash, record)
	st.ledger.Settle(index, line)
	return nil
}

//go:embed index.html
var indexHTML []byte

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(indexHTML)
	})
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /api/v1/studies", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/studies", s.handleList)
	mux.HandleFunc("GET /api/v1/studies/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/studies/{id}/spec", s.handleSpec)
	mux.HandleFunc("GET /api/v1/studies/{id}/points", s.handlePoints)
	mux.HandleFunc("GET /api/v1/studies/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/v1/studies/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/studies/{id}/digest", s.handleDigest)
	mux.HandleFunc("POST /api/v1/studies/{id}/lease", s.handleLease)
	mux.HandleFunc("POST /api/v1/studies/{id}/lease/{lease}/renew", s.handleLeaseRenew)
	mux.HandleFunc("POST /api/v1/studies/{id}/lease/{lease}/complete", s.handleLeaseComplete)
	mux.HandleFunc("GET /api/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	if s.cfg.Debug {
		// The telemetry mux on the service's own listener: one port
		// carries the API, /debug/vars, and the pprof endpoints.
		mux.Handle("/debug/", obs.DebugMux())
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(buf)
	w.Write([]byte{'\n'})
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxSpecBytes bounds the request body of a study submission.
const maxSpecBytes = 8 << 20

// handleSubmit is the admission path: decode and validate first (a
// malformed spec is 400 even when the queue is full), then admit under
// the queue bound, then 202 with the study's initial status. Spec bytes
// a retained study was submitted with are not decoded again, and under
// its seed and replica count not frozen again either (Server.specs).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, "study spec", maxSpecBytes)
	if !ok {
		return
	}
	var err error
	s.mu.Lock()
	prior := s.specs[string(body)]
	s.mu.Unlock()
	st := &study{
		workers:   s.budget,
		submitted: time.Now(),
		status:    "queued",
		end:       make(chan struct{}),
	}
	if len(prior) > 0 {
		st.spec, st.specText = prior[0].spec, prior[0].specText
	} else {
		if st.spec, err = campaign.DecodeStudy(body); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(st.spec.Points) == 0 {
			writeError(w, http.StatusBadRequest, "campaign: study with no points (nothing to run)")
			return
		}
		st.specText = string(body)
	}
	st.seed = s.cfg.DefaultSeed
	if v := r.URL.Query().Get("seed"); v != "" {
		st.seed, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "seed: %v", err)
			return
		}
	}
	if err := cliflags.CheckSeed(st.seed); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if v := r.URL.Query().Get("replicas"); v != "" {
		st.replicas, err = strconv.Atoi(v)
		if err != nil || st.replicas < 0 {
			writeError(w, http.StatusBadRequest, "replicas: not a non-negative integer: %q", v)
			return
		}
	}
	mode := r.URL.Query().Get("mode")
	switch mode {
	case "", "local", "fleet":
	default:
		writeError(w, http.StatusBadRequest, "mode: %q is not \"local\" or \"fleet\"", mode)
		return
	}
	if same := sameGrid(prior, st); same != nil {
		st.frozen, st.points = same.frozen, same.points
	} else {
		// Freeze the grid now: enumeration errors are submission errors,
		// and the materialized points power the progress and cache
		// surfaces.
		st.frozen, err = campaign.Frozen(st.spec, campaign.WithSeed(st.seed), campaign.WithReplicas(st.replicas))
		if err == nil {
			st.points, err = st.frozen.FrozenPoints()
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if mode == "fleet" {
		st.fleet = true
		st.workers = 0 // external workers execute; the slot only folds
	}
	st.newLedger(s.cfg.LeaseTTL)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	s.nextID++
	st.id = fmt.Sprintf("s%06d-%08x", s.nextID, s.instance)
	select {
	case s.queue <- st:
		s.studies[st.id] = st
		s.order = append(s.order, st.id)
		if same := s.specs[st.specText]; sameGrid(same, st) == nil {
			s.specs[st.specText] = append(same, st)
		}
		s.mu.Unlock()
		obs.QueueDepth.Add(1)
		s.cfg.Logf("study %s (%q): admitted, %d points, seed %d", st.id, st.spec.Name, len(st.points), st.seed)
		writeJSON(w, http.StatusAccepted, st.snapshot())
	default:
		s.nextID-- // not admitted; reuse the id
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "campaign queue is full (%d queued)", s.cfg.QueueDepth)
	}
}

// sameGrid returns the study among studies frozen under st's seed and
// replica count, or nil.
func sameGrid(studies []*study, st *study) *study {
	for _, o := range studies {
		if o.seed == st.seed && o.replicas == st.replicas {
			return o
		}
	}
	return nil
}

// readBody reads a request body of at most limit bytes, named what in
// the errors it answers. On failure it has answered the request — 413
// past limit, 400 for a body that breaks off — and returns ok false.
func readBody(w http.ResponseWriter, r *http.Request, what string, limit int64) (body []byte, ok bool) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, limit)
		return nil, false
	case err != nil:
		writeError(w, http.StatusBadRequest, "read %s: %v", what, err)
		return nil, false
	}
	return body, true
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *study {
	id := r.PathValue("id")
	s.mu.Lock()
	st := s.studies[id]
	s.mu.Unlock()
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown study %q", id)
		return nil
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if st := s.lookup(w, r); st != nil {
		writeJSON(w, http.StatusOK, st.snapshot())
	}
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	if st := s.lookup(w, r); st != nil {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		io.WriteString(w, st.specText)
	}
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) {
	if st := s.lookup(w, r); st != nil {
		writeJSON(w, http.StatusOK, st.points)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	states := make([]*study, 0, len(s.order))
	for _, id := range s.order {
		states = append(states, s.studies[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(states))
	for i, st := range states {
		out[i] = st.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleResults streams the study's results as chunked JSONL: replay of
// everything emitted so far, then the live tail, ending when the study
// does. The bytes are exactly json.Marshal of each result of the study
// run in process, one per line, so a saved stream is byte-comparable
// against a local run.
// Every subscriber writes the ledger's lines as they are: they are shared.
// A study that fails or is canceled simply ends its stream early; the
// status endpoint carries the error.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	s.follow(w, r, "application/x-ndjson", func(_ int, line []byte) error {
		_, err := w.Write(line)
		return err
	}, nil)
}

// handleEvents is the same stream as Server-Sent Events: one "result"
// event per point, then a terminal "done" or "error" event, for
// browsers and EventSource clients.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.follow(w, r, "text/event-stream", func(i int, line []byte) error {
		// Result JSON never contains newlines, so one data: line carries
		// the whole object.
		_, err := fmt.Fprintf(w, "event: result\nid: %d\ndata: %s\n\n", i, line[:len(line)-1])
		return err
	}, func(results int, errMsg string) {
		if errMsg != "" {
			msg, _ := json.Marshal(errorBody{Error: errMsg})
			fmt.Fprintf(w, "event: error\ndata: %s\n\n", msg)
		} else {
			fmt.Fprintf(w, "event: done\ndata: {\"results\": %d}\n\n", results)
		}
	})
}

// follow is the one loop behind both result streams: it answers with
// contentType, hands write every result line the study's ledger has
// folded with its index — the replay, then each line as it is folded —
// flushing after each batch, and returns when the study ends, the
// request's context does or a write fails. end, when non-nil, writes the
// stream's last bytes once the study has ended, given how many results
// it had and its error ("" when it completed). Each round reads whether
// the study has ended before it takes the lines, so the lines a study
// folded before it ended are all written before its end.
func (s *Server) follow(w http.ResponseWriter, r *http.Request, contentType string, write func(i int, line []byte) error, end func(results int, errMsg string)) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	for i := 0; ; {
		done := false
		select {
		case <-st.end:
			done = true
		default:
		}
		lines, wait := st.ledger.Lines(i)
		for _, line := range lines {
			if err := write(i, line); err != nil {
				return
			}
			i++
		}
		if done && end != nil {
			end(i, st.errMsg)
		}
		if fl != nil {
			fl.Flush()
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-st.end:
		case <-r.Context().Done():
			return
		}
	}
}

// digestBody is the completed-study response: every result object, in
// point-index order, spliced from the exact streamed bytes.
type digestBody struct {
	ID      string            `json:"id"`
	Name    string            `json:"name"`
	Status  string            `json:"status"`
	Points  int               `json:"points"`
	Results []json.RawMessage `json:"results"`
}

// handleDigest returns the final result set of a completed study; while
// the study is queued or running it answers 425 (Too Early) with
// Retry-After, and for a failed or canceled study 409 with the error.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	status := st.snapshot()
	switch status.Status {
	case "queued", "running":
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooEarly, status)
	case "failed", "canceled":
		writeJSON(w, http.StatusConflict, status)
	default:
		lines, _ := st.ledger.Lines(0)
		body := digestBody{
			ID:      status.ID,
			Name:    status.Name,
			Status:  status.Status,
			Points:  status.Points,
			Results: make([]json.RawMessage, len(lines)),
		}
		for i, line := range lines {
			body.Results[i] = json.RawMessage(line[:len(line)-1])
		}
		writeJSON(w, http.StatusOK, body)
	}
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, scenario.List())
}

// statsBody is the service-level stats surface (the per-process
// counters live in /debug/vars).
type statsBody struct {
	// Epoch is the results epoch of the numbers the service computes
	// and caches (campaign.Epoch).
	Epoch    int            `json:"epoch"`
	Studies  map[string]int `json:"studies"`
	Queue    map[string]int `json:"queue"`
	Workers  map[string]int `json:"workers"`
	Cache    cacheStats     `json:"cache"`
	Draining bool           `json:"draining"`
}

type cacheStats struct {
	Enabled   bool  `json:"enabled"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	byStatus := map[string]int{}
	for _, st := range s.studies {
		st.mu.Lock()
		byStatus[st.status]++
		st.mu.Unlock()
	}
	byStatus["total"] = len(s.studies)
	depth := len(s.queue)
	draining := s.draining
	s.mu.Unlock()
	bytes, entries := s.cache.Stats()
	body := statsBody{
		Epoch:   campaign.Epoch,
		Studies: byStatus,
		Queue:   map[string]int{"depth": depth, "capacity": s.cfg.QueueDepth},
		Workers: map[string]int{
			"pool":       parallel.Workers(s.cfg.Workers),
			"per_study":  s.budget,
			"max_active": s.cfg.MaxActive,
		},
		Cache: cacheStats{
			Enabled:   s.cache != nil,
			Bytes:     bytes,
			MaxBytes:  s.cfg.CacheBytes,
			Entries:   entries,
			Hits:      obs.CacheHits.Value(),
			Misses:    obs.CacheMisses.Value(),
			Evictions: obs.CacheEvictions.Value(),
		},
		Draining: draining,
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}
