package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Options bounds the server. Zero values take the documented defaults;
// Validate rejects nonsense before the server starts.
type Options struct {
	// Workers is the number of simulations allowed to run concurrently
	// (default 2). Cache hits and coalesced waits never occupy a slot.
	Workers int
	// QueueDepth is how many admissions may wait for a worker slot
	// beyond the ones running; the next one is shed with 429
	// (default 32).
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 1024).
	CacheEntries int
	// RequestTimeout is the wall-clock limit for one simulation
	// (default 10 minutes; 0 keeps the default — a serving daemon must
	// never host an unbounded request).
	RequestTimeout time.Duration
	// Parallelism is passed to experiments.Options for each sweep: how
	// many configurations one experiment simulates concurrently
	// (default 0 = serial; the worker pool is the outer concurrency).
	Parallelism int
	// Store is the optional crash-safe disk tier behind the in-memory
	// cache (nil = memory-only). The server takes ownership: Close
	// flushes and closes it, and New sweeps entries recorded under an
	// older CodeVersion.
	Store *store.Store
	// StoreOpenError records why the disk tier is absent when one was
	// requested but failed to open; /readyz then reports the daemon as
	// degraded-but-serving (memory-only) instead of silently healthy.
	StoreOpenError string
	// WorkerID, when set, marks this daemon as a fabric worker: every
	// result response carries it in an X-Fabric-Worker header so
	// clients (and simload's per-worker attribution) can see which
	// shard answered, whether they reached the worker directly or
	// through a coordinator that forwarded the header.
	WorkerID string
}

const (
	defaultWorkers        = 2
	defaultQueueDepth     = 32
	defaultCacheEntries   = 1024
	defaultRequestTimeout = 10 * time.Minute
	maxWorkers            = 1024
	maxQueueDepth         = 1 << 20
	maxBodyBytes          = 1 << 20
	// smallBodyBytes bounds an ordinary request body: a valid sweep or
	// sim request is 110-300 bytes. ReadBody sizes its buffer from a
	// declared length only up to this, and a KeyMemo files no larger
	// body, so a memo holds at most entries x 4 KiB of request bytes.
	smallBodyBytes = 4 << 10
)

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = defaultWorkers
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = defaultQueueDepth
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = defaultCacheEntries
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = defaultRequestTimeout
	}
	return o
}

// Validate rejects out-of-range limits with a clear error. It runs on
// the defaulted options, so only genuinely bad values (negative,
// absurd) fail.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Workers < 1 || o.Workers > maxWorkers {
		return fmt.Errorf("service: workers must be in [1,%d] (got %d)", maxWorkers, o.Workers)
	}
	if o.QueueDepth < 1 || o.QueueDepth > maxQueueDepth {
		return fmt.Errorf("service: queue depth must be in [1,%d] (got %d)", maxQueueDepth, o.QueueDepth)
	}
	if o.CacheEntries < 1 {
		return fmt.Errorf("service: cache entries must be >= 1 (got %d)", o.CacheEntries)
	}
	if o.RequestTimeout < 0 {
		return fmt.Errorf("service: request timeout must be >= 0 (got %v)", o.RequestTimeout)
	}
	if o.Parallelism < -1 || o.Parallelism > 4096 {
		return fmt.Errorf("service: parallelism must be in [-1,4096] (got %d)", o.Parallelism)
	}
	return nil
}

// Server is the simulation-as-a-service daemon core: an http.Handler
// plus the cache, coalescing group, and admission pool behind it.
type Server struct {
	opts     Options
	cache    *Cache
	store    *store.Store // nil = memory-only
	storeErr string       // why the disk tier is absent/degraded
	group    *group
	metrics  *metrics
	sem      chan struct{}
	mux      *http.ServeMux

	baseCtx    context.Context // serving lifetime; cancelled by Abort
	baseCancel context.CancelFunc
	draining   chan struct{} // closed by BeginDrain

	// Injectable runners, replaced by tests to count and pace
	// simulations without paying for real ones.
	runSweep func(req SweepRequest) (string, error)
	runSim   func(req SimRequest) (report.Report, error)
}

// New builds a Server with validated options.
func New(o Options) (*Server, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	//lint:allow ctxflow deliberate lifetime root: results outlive any one request (coalesced followers, the cache), so simulations run under the serving lifetime; Abort cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       o,
		cache:      NewCache(o.CacheEntries),
		store:      o.Store,
		storeErr:   o.StoreOpenError,
		group:      newGroup(),
		metrics:    newMetrics(),
		sem:        make(chan struct{}, o.Workers),
		baseCtx:    ctx,
		baseCancel: cancel,
		draining:   make(chan struct{}),
	}
	if s.store != nil {
		// Keys embed CodeVersion as a literal prefix: one sweep drops
		// every result computed by older simulator code. A sweep
		// failure is purely a space-reclaim miss — stale entries can
		// never be served because lookups always use the current
		// prefix — so it degrades the status line, not the server.
		if _, err := s.store.SweepExcept(storeKeyPrefix()); err != nil {
			s.storeErr = fmt.Sprintf("code-version sweep: %v", err)
		}
	}
	s.runSweep = s.defaultRunSweep
	s.runSim = s.defaultRunSim
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP surface, ready for an http.Server or an
// httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips readiness off and rejects new simulation requests
// with 503, while requests already in flight run to completion. Call it
// before http.Server.Shutdown so load balancers stop sending traffic
// that would be cut off.
func (s *Server) BeginDrain() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

// Abort cancels the serving lifetime context: simulations still running
// after the drain deadline are abandoned (their harness attempts report
// canceled). The last resort of a forced shutdown.
func (s *Server) Abort() { s.baseCancel() }

// Close ends the drain: flush and close the disk tier so every
// acknowledged result is durable before the process exits. Idempotent;
// requests arriving afterwards are rejected with 503 like any other
// post-drain traffic.
func (s *Server) Close() error {
	s.BeginDrain()
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Metrics snapshots the operational counters.
func (s *Server) Metrics() MetricsSnapshot {
	return s.metrics.snapshot(s.cache.Stats(), s.storeMetrics())
}

// storeMetrics reports the durability tier: its mode (disk /
// memory-only / degraded), open or sweep errors, and — when a store is
// attached — its counters, including what startup recovery found
// (torn tails truncated, corrupt records dropped).
func (s *Server) storeMetrics() StoreMetrics {
	m := StoreMetrics{Mode: "memory-only"}
	switch {
	case s.store != nil:
		m.Mode = "disk"
		m.Error = s.storeErr
		st := s.store.Stats()
		m.Stats = &st
	case s.storeErr != "":
		m.Mode = "degraded"
		m.Error = s.storeErr
	}
	return m
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// --- default runners -------------------------------------------------

func (s *Server) defaultRunSweep(req SweepRequest) (string, error) {
	opts := experiments.Options{
		Scale:           req.Scale,
		Level:           req.Level,
		MaxInstructions: req.MaxInstructions,
		Parallelism:     s.opts.Parallelism,
		Fidelity:        req.Fidelity,
	}
	return experiments.RunFidelity(req.Experiment, opts)
}

func (s *Server) defaultRunSim(req SimRequest) (report.Report, error) {
	cfg, err := experiments.BuildConfig(req.Config)
	if err != nil {
		return report.Report{}, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	rec := workload.Record(req.Scale)
	res, err := sim.Run(cfg, workload.ReplayProcesses(rec), sched.Config{
		Level:           req.Level,
		TimeSlice:       req.TimeSlice,
		MaxInstructions: req.MaxInstructions,
	})
	if err != nil {
		return report.Report{}, err
	}
	return report.New(cfg, res), nil
}

// --- request plumbing ------------------------------------------------

// guarded runs compute through internal/harness: per-request timeout,
// panic recovery, and a typed *harness.RunError on failure. It runs
// under the serving lifetime, not the requesting client's context —
// coalesced followers and future cache hits want the result even if the
// first client hangs up.
func (s *Server) guarded(id string, compute func() ([]byte, error)) ([]byte, error) {
	//lint:allow ctxflow the simulator is non-preemptible, so compute cannot honor cancellation mid-run; the harness abandons the attempt on timeout/abort instead (see harness.attempt)
	spec := harness.Spec{ID: id, Title: id, Run: func(context.Context) (string, error) {
		b, err := compute()
		return string(b), err
	}}
	m, _ := harness.RunContext(s.baseCtx, []harness.Spec{spec}, harness.Options{
		Workers: 1,
		Timeout: s.opts.RequestTimeout,
	})
	res := m.Results[0]
	switch res.Status {
	case harness.StatusOK:
		return []byte(res.Output), nil
	case harness.StatusFailed:
		return nil, res.Err
	default: // skipped: the server was aborted before the run started
		return nil, fmt.Errorf("service: aborted before start: %w", s.baseCtx.Err())
	}
}

// acquire claims a worker slot, queueing up to QueueDepth admissions
// and shedding the rest with ErrOverloaded.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	q := s.metrics.queued.Add(1)
	defer s.metrics.queued.Add(-1)
	if q > int64(s.opts.QueueDepth) {
		return fmt.Errorf("%w: queue full (%d waiting)", ErrOverloaded, q-1)
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: gave up waiting for a worker slot: %w", ctx.Err())
	}
}

func (s *Server) release() { <-s.sem }

// serveResult is the shared serve path: cache lookup, coalesced
// compute, store, respond. The response body for a given key is always
// the same bytes; hit/miss/coalesced and elapsed time travel as
// headers so repeats stay byte-identical.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, key string, compute func() ([]byte, error)) {
	start := now()
	s.metrics.requests.Add(1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	if body, _, ok := s.cache.Get(key); ok {
		s.respond(w, start, "hit", "memory", key, body)
		return
	}
	if s.store != nil {
		if body, ok := s.store.Get(storeKey(key)); ok {
			// Promote the disk hit so repeats are memory-fast. The
			// stored bytes passed their CRC; they are the exact bytes
			// a fresh simulation would produce.
			s.cache.Put(key, s.opts.WorkerID, body)
			s.respond(w, start, "hit", "disk", key, body)
			return
		}
	}
	if s.isDraining() {
		s.fail(w, ErrDraining)
		return
	}
	body, leader, err := s.group.do(r.Context(), key, func() ([]byte, error) {
		if err := s.acquire(r.Context()); err != nil {
			return nil, err
		}
		defer s.release()
		b, err := s.guarded(key, compute)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, s.opts.WorkerID, b)
		if s.store != nil {
			// A persist failure only costs durability of this one
			// entry; the client still gets its freshly computed bytes.
			if perr := s.store.Put(storeKey(key), b); perr != nil {
				s.metrics.storePutErrors.Add(1)
			}
		}
		return b, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	source := "miss"
	if !leader {
		source = "coalesced"
		s.metrics.coalesced.Add(1)
	}
	s.respond(w, start, source, "", key, body)
}

// respond writes a result body with its operational headers and records
// latency. tier says which cache tier satisfied a hit ("" otherwise).
func (s *Server) respond(w http.ResponseWriter, start time.Time, source, tier, key string, body []byte) {
	elapsed := now().Sub(start)
	s.metrics.all.observe(elapsed)
	if source == "hit" {
		s.metrics.hitLat.observe(elapsed)
	} else {
		s.metrics.computed.observe(elapsed)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if s.opts.WorkerID != "" {
		h.Set(WorkerHeader, s.opts.WorkerID)
	}
	h.Set("X-Cache", source)
	if tier != "" {
		h.Set("X-Cache-Tier", tier)
	}
	h.Set("X-Cache-Key", key)
	h.Set("X-Elapsed-Us", strconv.FormatInt(elapsed.Microseconds(), 10))
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// fail maps an error to its HTTP status and writes a JSON error body.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.metrics.errors.Add(1)
	status := http.StatusInternalServerError
	var re *harness.RunError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
		s.metrics.overloads.Add(1)
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.As(err, &re):
		switch re.Kind {
		case harness.KindTimeout:
			status = http.StatusGatewayTimeout
		case harness.KindCanceled:
			status = http.StatusServiceUnavailable
		default: // error, panic
			if errors.Is(err, ErrBadRequest) {
				status = http.StatusBadRequest
			}
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
	}
	// Once the drain has begun, any internal failure is really "this
	// replica is going away": tell clients to retry elsewhere (503)
	// instead of reporting a server bug (500).
	if status == http.StatusInternalServerError && s.isDraining() {
		status = http.StatusServiceUnavailable
	}
	// Shed and draining responses carry pacing for resilient clients
	// (internal/client honors Retry-After on exactly these statuses).
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "2")
	}
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// ReadBody reads a request body of at most 1 MiB. One declared at up
// to smallBodyBytes is read into a buffer of exactly that size; any
// other grows as it arrives, so a large declared length that is never
// sent holds no memory. A failure wraps ErrBadRequest.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var raw []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= smallBodyBytes {
		raw = make([]byte, n)
		_, err = io.ReadFull(r.Body, raw)
	} else {
		raw, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %w", ErrBadRequest, err)
	}
	return raw, nil
}

// ReadJSON reads a request body with ReadBody and decodes it strictly
// (an unknown field is an error) into into. Every failure wraps
// ErrBadRequest.
func ReadJSON(w http.ResponseWriter, r *http.Request, into any) error {
	raw, err := ReadBody(w, r)
	if err != nil {
		return err
	}
	return decodeStrict(raw, into)
}

// decodeStrict decodes the first JSON value of raw into into, refusing
// unknown fields. A failure wraps ErrBadRequest.
func decodeStrict(raw []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("%w: invalid JSON body: %w", ErrBadRequest, err)
	}
	return nil
}

// WriteJSON writes v, indented, as a JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":"encode: %s"}`, err)
		return
	}
	w.Write(append(data, '\n'))
}

// --- handlers --------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports serving readiness plus the durability tier's
// state: "ready" with a disk store, "degraded" when a store was asked
// for but failed to open (the daemon serves memory-only rather than
// refusing traffic), 503 "draining" during shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := struct {
		Status string       `json:"status"`
		Store  StoreMetrics `json:"store"`
	}{Status: "ready", Store: s.storeMetrics()}
	status := http.StatusOK
	switch {
	case s.isDraining():
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	case body.Store.Mode == "degraded":
		body.Status = "degraded"
	}
	WriteJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		// Fidelities lists every engine that can run this experiment
		// ("exact" always, plus "screening" and/or "sampled").
		Fidelities []string `json:"fidelities"`
	}
	reg := experiments.Registry()
	list := make([]entry, 0, len(reg))
	for _, e := range reg {
		list = append(list, entry{e.ID, e.Title, e.Fidelities()})
	}
	WriteJSON(w, http.StatusOK, list)
}

// readKeyed reads a result request's body and keys it on the strict
// path, returning the normalized request and its key. On failure it
// answers the client and returns ok false.
func readKeyed[R request[R]](s *Server, w http.ResponseWriter, r *http.Request, tag string) (req R, key string, ok bool) {
	raw, err := ReadBody(w, r)
	if err == nil {
		req, key, err = decodeKeyed[R](tag, raw)
	}
	if err != nil {
		s.metrics.requests.Add(1)
		s.fail(w, err)
		return req, "", false
	}
	return req, key, true
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, key, ok := readKeyed[SweepRequest](s, w, r, "sweep")
	if !ok {
		return
	}
	s.serveResult(w, r, key, func() ([]byte, error) {
		e, err := experiments.ByID(req.Experiment)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		out, err := s.runSweep(req)
		if err != nil {
			return nil, fmt.Errorf("service: sweep %s: %w", req.Experiment, err)
		}
		body, err := json.MarshalIndent(SweepResponse{
			Experiment:      req.Experiment,
			Title:           e.Title,
			Scale:           req.Scale,
			Level:           req.Level,
			MaxInstructions: req.MaxInstructions,
			Fidelity:        req.Fidelity,
			CodeVersion:     CodeVersion,
			Output:          out,
		}, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("service: marshal sweep response: %w", err)
		}
		return append(body, '\n'), nil
	})
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	req, key, ok := readKeyed[SimRequest](s, w, r, "sim")
	if !ok {
		return
	}
	s.serveResult(w, r, key, func() ([]byte, error) {
		rep, err := s.runSim(req)
		if err != nil {
			return nil, fmt.Errorf("service: sim: %w", err)
		}
		body, err := json.MarshalIndent(SimResponse{
			Request:     req,
			CodeVersion: CodeVersion,
			Report:      rep,
		}, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("service: marshal sim response: %w", err)
		}
		return append(body, '\n'), nil
	})
}
