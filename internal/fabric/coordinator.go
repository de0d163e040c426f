package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/service"
)

// Sentinel coordinator errors, matched by the HTTP layer.
var (
	// ErrNoWorkers means the ring is empty: nothing has registered, or
	// everything has been drained.
	ErrNoWorkers = errors.New("fabric: no live workers in the ring")
	// ErrAllReplicasFailed wraps the last leg error once every candidate
	// worker for a key has been tried.
	ErrAllReplicasFailed = errors.New("fabric: all replicas failed")
)

// CoordinatorOptions tunes the coordinator. Zero values take the
// documented defaults.
type CoordinatorOptions struct {
	// Vnodes per worker on the consistent-hash ring (default
	// DefaultVnodes).
	Vnodes int
	// HeartbeatTTL drains a worker after this much silence (default
	// DefaultHeartbeatTTL). The janitor looks for silent workers every
	// HeartbeatTTL/2.
	HeartbeatTTL time.Duration
	// Replicas is how many ring successors a request may try, the owner
	// included (default 2: the owner plus one hedge/failover target).
	// Bounded by the live member count at routing time.
	Replicas int
	// HedgeDelay is how long the owner leg may stay silent before a
	// hedge leg is launched at the next replica (default 15s). Failures
	// fail over immediately regardless; the hedge only covers
	// stragglers. Keep it well above a cache-hit RTT and near the
	// tolerable tail: a hedge that fires during a long simulation
	// duplicates that simulation on a second worker (correct but
	// wasteful — determinism makes the results identical).
	HedgeDelay time.Duration
	// WorkerInflight bounds the coordinator's concurrent legs per
	// worker (default 32). At the bound, new legs for that worker wait;
	// the hedge timer keeps waiting legs from stalling a request whose
	// next replica is idle.
	WorkerInflight int
	// Client tunes the worker-leg HTTP client (retries, per-attempt
	// deadlines, per-endpoint breakers). The zero value takes
	// client.Options defaults.
	Client client.Options
	// GridFanout bounds how many sub-requests of one /v1/grid scatter
	// run concurrently (default 8).
	GridFanout int
}

const (
	defaultReplicas       = 2
	defaultHedgeDelay     = 15 * time.Second
	defaultWorkerInflight = 32
	defaultGridFanout     = 8
	maxGridConfigs        = 1024
	// resultEntries bounds the coordinator's result tier. Relayed
	// /v1/sim bodies measured 1.3-2.7 KB and the benchmark's hot set is
	// 160 keys, so 256 entries hold a hot set that size in well under
	// 1 MB while a stream of one-off keys ages out of the LRU.
	resultEntries = 256
)

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Vnodes <= 0 {
		o.Vnodes = DefaultVnodes
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = DefaultHeartbeatTTL
	}
	if o.Replicas <= 0 {
		o.Replicas = defaultReplicas
	}
	if o.HedgeDelay <= 0 {
		o.HedgeDelay = defaultHedgeDelay
	}
	if o.WorkerInflight <= 0 {
		o.WorkerInflight = defaultWorkerInflight
	}
	if o.GridFanout <= 0 {
		o.GridFanout = defaultGridFanout
	}
	return o
}

// Validate rejects unusable coordinator options.
func (o CoordinatorOptions) Validate() error {
	o = o.withDefaults()
	if o.Replicas > 64 {
		return fmt.Errorf("fabric: replicas must be <= 64 (got %d)", o.Replicas)
	}
	if o.WorkerInflight > 1<<16 {
		return fmt.Errorf("fabric: worker inflight bound must be <= %d (got %d)", 1<<16, o.WorkerInflight)
	}
	if o.GridFanout > 256 {
		return fmt.Errorf("fabric: grid fanout must be <= 256 (got %d)", o.GridFanout)
	}
	return o.Client.Validate()
}

// workerCounters is the coordinator's per-worker routing ledger.
type workerCounters struct {
	Routed    uint64 `json:"routed"`    // legs sent because the worker owned the key
	Failovers uint64 `json:"failovers"` // legs sent after a prior replica failed
	Hedges    uint64 `json:"hedges"`    // legs sent because a prior replica was slow
	Errors    uint64 `json:"errors"`    // legs that returned an error
}

// Coordinator shards the request space across registered workers via a
// consistent-hash ring keyed on the same content address the workers
// cache under, so every key has one home and the cluster never computes
// one result twice. It exposes the worker /v1 surface unchanged (plus
// /v1/cluster and /v1/grid), so clients built for one daemon — simload
// included — drive a cluster without modification.
type Coordinator struct {
	opts    CoordinatorOptions
	members *Membership
	cl      *client.Client
	mux     *http.ServeMux
	baseCtx context.Context
	// results is the coordinator's own tier: relayed result bodies by
	// content address, each with the worker that produced it. keys maps
	// request bytes to that address, under the same bound.
	results *service.Cache
	keys    *service.KeyMemo

	requests  atomic.Uint64 // result-producing API requests
	errors    atomic.Uint64 // error responses on those endpoints
	hedges    atomic.Uint64 // hedge legs launched
	failovers atomic.Uint64 // failover legs launched
	noWorker  atomic.Uint64 // requests rejected for an empty ring

	mu        sync.Mutex
	slots     map[string]chan struct{}
	perWorker map[string]*workerCounters
	start     time.Time
	draining  bool
}

// NewCoordinator builds a coordinator whose background janitor (TTL
// expiry of silent workers) runs until ctx is cancelled. The caller
// owns ctx: cancel it on shutdown.
func NewCoordinator(ctx context.Context, o CoordinatorOptions) (*Coordinator, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	cl, err := client.New(o.Client)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:      o,
		members:   NewMembership(o.HeartbeatTTL, o.Vnodes),
		cl:        cl,
		baseCtx:   ctx,
		results:   service.NewCache(resultEntries),
		keys:      service.NewKeyMemo(resultEntries),
		slots:     make(map[string]chan struct{}),
		perWorker: make(map[string]*workerCounters),
		start:     coordNow(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /v1/cluster", c.handleCluster)
	mux.HandleFunc("GET /v1/experiments", c.handleExperiments)
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/sim", c.handleSim)
	mux.HandleFunc("POST /v1/grid", c.handleGrid)
	mux.HandleFunc("POST /v1/fabric/register", c.handleRegister)
	c.mux = mux
	go c.janitor(ctx)
	return c, nil
}

// coordNow is the fabric package's one sanctioned wall-clock read:
// heartbeat liveness, uptime, and hedge timing are operational
// metadata; every result body the coordinator serves is produced (and
// content-addressed) by a worker.
//
//lint:allow determinism operational timing only; result bodies come from workers verbatim
func coordNow() time.Time { return time.Now() }

// janitor drains workers whose heartbeats stopped.
func (c *Coordinator) janitor(ctx context.Context) {
	t := time.NewTicker(c.opts.HeartbeatTTL / 2)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.members.Expire()
		}
	}
}

// Handler returns the HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Membership exposes the registry (tests and cmd wiring).
func (c *Coordinator) Membership() *Membership { return c.members }

// BeginDrain fails readiness and rejects new result-producing work with
// 503 so load balancers move on while in-flight legs finish.
func (c *Coordinator) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

func (c *Coordinator) isDraining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// --- routing ---------------------------------------------------------

// slot returns the bounded-fan-out semaphore for one worker.
func (c *Coordinator) slot(worker string) chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.slots[worker]
	if !ok {
		s = make(chan struct{}, c.opts.WorkerInflight)
		c.slots[worker] = s
	}
	return s
}

func (c *Coordinator) count(worker string, f func(*workerCounters)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wc, ok := c.perWorker[worker]
	if !ok {
		wc = &workerCounters{}
		c.perWorker[worker] = wc
	}
	f(wc)
}

// legResult is one worker leg's outcome.
type legResult struct {
	worker string
	res    client.Result
	err    error
}

// leg runs one forwarded request against one worker under the
// per-worker fan-out bound. The client layer supplies retries with
// backoff, per-attempt deadlines, and the worker's own circuit breaker.
func (c *Coordinator) leg(ctx context.Context, worker, addr, path string, body []byte) legResult {
	sem := c.slot(worker)
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return legResult{worker: worker, err: fmt.Errorf("fabric: gave up waiting for a %s slot: %w", worker, ctx.Err())}
	}
	defer func() { <-sem }()
	var (
		res client.Result
		err error
	)
	if body != nil {
		res, err = c.cl.PostJSON(ctx, addr+path, body)
	} else {
		res, err = c.cl.Get(ctx, addr+path)
	}
	if err != nil {
		c.count(worker, func(w *workerCounters) { w.Errors++ })
	}
	return legResult{worker: worker, res: res, err: err}
}

// forward routes one request by its content-address key: the ring
// owner first, then — on failure immediately, or on HedgeDelay of
// silence — the next replicas in ring-walk order. The first successful
// leg wins; determinism makes duplicate completions byte-identical, so
// discarding losers is free.
func (c *Coordinator) forward(ctx context.Context, path string, body []byte, key string) (client.Result, string, error) {
	candidates := c.members.Ring().Lookup(key, c.opts.Replicas)
	if len(candidates) == 0 {
		c.noWorker.Add(1)
		return client.Result{}, "", ErrNoWorkers
	}

	results := make(chan legResult, len(candidates))
	launch := func(i int, kind string) {
		worker := candidates[i]
		addr, ok := c.members.Addr(worker)
		if !ok {
			// Drained between Lookup and now; the buffered channel makes
			// this send non-blocking, so failing the leg without a network
			// hop is safe even mid-select.
			results <- legResult{worker: worker, err: fmt.Errorf("fabric: %s left the ring", worker)}
			return
		}
		switch kind {
		case "route":
			c.count(worker, func(w *workerCounters) { w.Routed++ })
		case "failover":
			c.failovers.Add(1)
			c.count(worker, func(w *workerCounters) { w.Failovers++ })
		case "hedge":
			c.hedges.Add(1)
			c.count(worker, func(w *workerCounters) { w.Hedges++ })
		}
		go func() {
			r := c.leg(ctx, worker, addr, path, body)
			select {
			case results <- r:
			case <-ctx.Done(): // request abandoned; drop the leg result
			}
		}()
	}

	next := 0
	launch(next, "route")
	next++
	inFlight := 1
	hedge := time.NewTimer(c.opts.HedgeDelay)
	defer hedge.Stop()
	var lastErr error
	for {
		select {
		case r := <-results:
			if r.err == nil {
				return r.res, r.worker, nil
			}
			lastErr = r.err
			inFlight--
			if next < len(candidates) {
				launch(next, "failover")
				next++
				inFlight++
			} else if inFlight == 0 {
				return client.Result{}, "", fmt.Errorf("%w: %w", ErrAllReplicasFailed, lastErr)
			}
		case <-hedge.C:
			if next < len(candidates) {
				launch(next, "hedge")
				next++
				inFlight++
			}
		case <-ctx.Done():
			return client.Result{}, "", fmt.Errorf("fabric: request abandoned: %w", ctx.Err())
		}
	}
}

// --- HTTP helpers ----------------------------------------------------

// coordFail maps a routing error onto the status a resilient client
// expects: empty ring and drain are 503 (retry later, elsewhere), a
// fully failed scatter is 502 (the cluster is unhealthy, retryable),
// bad requests are 400.
func (c *Coordinator) coordFail(w http.ResponseWriter, err error) {
	c.errors.Add(1)
	status := http.StatusBadGateway
	switch {
	case errors.Is(err, service.ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNoWorkers), errors.Is(err, service.ErrDraining):
		status = http.StatusServiceUnavailable
	}
	if c.isDraining() && status != http.StatusBadRequest {
		status = http.StatusServiceUnavailable
	}
	switch status {
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "2")
	case http.StatusBadGateway:
		w.Header().Set("Retry-After", "1")
	}
	service.WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// relay copies a winning leg's response to the client: the body
// verbatim (byte-identity end to end) and the serving metadata headers,
// X-Fabric-Worker included, plus which replica index answered.
func relay(w http.ResponseWriter, res client.Result, worker string) {
	h := w.Header()
	for _, name := range []string{"Content-Type", "X-Cache", "X-Cache-Tier", "X-Cache-Key", "X-Elapsed-Us", service.WorkerHeader} {
		if v := res.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	// A worker not started in worker mode has no identity header; the
	// coordinator still attributes the route by member ID.
	if h.Get(service.WorkerHeader) == "" {
		h.Set(service.WorkerHeader, worker)
	}
	h.Set("X-Fabric-Attempts", strconv.Itoa(res.Attempts))
	h.Set("Content-Length", strconv.Itoa(len(res.Body)))
	w.Write(res.Body)
}

// --- result tier -----------------------------------------------------

// remember files a relayed result in the coordinator's tier under the
// worker relay attributed it to. Only a 2xx leg whose X-Cache-Key is
// the coordinator's own key qualifies: a worker built from other code
// (another CodeVersion or request normalization) addresses its bytes
// differently, and serving them under this build's address would break
// content addressing. The copy is exact-size, so the tier's byte count
// is what it holds.
func (c *Coordinator) remember(key string, res client.Result, worker string) {
	if res.Status/100 != 2 || res.Header.Get("X-Cache-Key") != key {
		return
	}
	if id := res.Header.Get(service.WorkerHeader); id != "" {
		worker = id
	}
	c.results.Put(key, worker, bytes.Clone(res.Body))
}

// serveRemembered answers key from the coordinator's tier if it holds
// it: the same body bytes a worker would relay, marked as a hit of the
// coordinator tier and attributed to the worker that produced them.
// X-Fabric-Attempts is 0 because no leg ran.
func (c *Coordinator) serveRemembered(w http.ResponseWriter, key string) bool {
	body, worker, ok := c.results.Get(key)
	if !ok {
		return false
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", "hit")
	h.Set("X-Cache-Tier", "coordinator")
	h.Set("X-Cache-Key", key)
	h.Set(service.WorkerHeader, worker)
	h.Set("X-Fabric-Attempts", "0")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
	return true
}

// --- handlers --------------------------------------------------------

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	c.members.Expire()
	n := c.members.Ring().Size()
	body := struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}{Status: "ready", Workers: n}
	status := http.StatusOK
	switch {
	case c.isDraining():
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	case n == 0:
		body.Status = "no-workers"
		status = http.StatusServiceUnavailable
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "2")
	}
	service.WriteJSON(w, status, body)
}

// ClusterWorker is one worker's row in the /v1/cluster report: the
// membership view (liveness, last reported cache stats) joined with the
// coordinator's routing ledger and the leg client's breaker state.
type ClusterWorker struct {
	Member
	Routing workerCounters       `json:"routing"`
	Breaker *client.BreakerState `json:"breaker,omitempty"`
}

// ClusterState is the /v1/cluster response body. Cache is the
// coordinator's own result tier.
type ClusterState struct {
	CodeVersion string             `json:"code_version"`
	Vnodes      int                `json:"vnodes"`
	Replicas    int                `json:"replicas"`
	RingVersion uint64             `json:"ring_version"`
	Cache       service.CacheStats `json:"cache"`
	Workers     []ClusterWorker    `json:"workers"`
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	c.members.Expire()
	snap := c.members.Snapshot()
	breakers := map[string]client.BreakerState{}
	for _, b := range c.cl.BreakerStates() {
		breakers[b.Endpoint] = b
	}
	workers := make([]ClusterWorker, 0, len(snap))
	for _, m := range snap {
		cw := ClusterWorker{Member: m}
		c.mu.Lock()
		if wc, ok := c.perWorker[m.ID]; ok {
			cw.Routing = *wc
		}
		c.mu.Unlock()
		if b, ok := breakers[client.Endpoint(m.Addr)]; ok {
			b := b
			cw.Breaker = &b
		}
		workers = append(workers, cw)
	}
	service.WriteJSON(w, http.StatusOK, ClusterState{
		CodeVersion: service.CodeVersion,
		Vnodes:      c.opts.Vnodes,
		Replicas:    c.opts.Replicas,
		RingVersion: c.members.Version(),
		Cache:       c.results.Stats(),
		Workers:     workers,
	})
}

// MetricsSnapshot is the coordinator's /metrics body. Cache is the
// coordinator's own result tier.
type MetricsSnapshot struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Requests      uint64                    `json:"requests"`
	Errors        uint64                    `json:"errors"`
	Hedges        uint64                    `json:"hedges"`
	Failovers     uint64                    `json:"failovers"`
	NoWorker      uint64                    `json:"no_worker_rejects"`
	Workers       int                       `json:"workers"`
	Cache         service.CacheStats        `json:"cache"`
	PerWorker     map[string]workerCounters `json:"per_worker"`
	Client        client.Stats              `json:"client"`
	CodeVersion   string                    `json:"code_version"`
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	per := map[string]workerCounters{}
	c.mu.Lock()
	//lint:allow determinism JSON object key order is canonicalized by encoding/json
	for id, wc := range c.perWorker {
		per[id] = *wc
	}
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, MetricsSnapshot{
		UptimeSeconds: coordNow().Sub(c.start).Seconds(),
		Requests:      c.requests.Load(),
		Errors:        c.errors.Load(),
		Hedges:        c.hedges.Load(),
		Failovers:     c.failovers.Load(),
		NoWorker:      c.noWorker.Load(),
		Workers:       c.members.Ring().Size(),
		Cache:         c.results.Stats(),
		PerWorker:     per,
		Client:        c.cl.Stats(),
		CodeVersion:   service.CodeVersion,
	})
}

// handleExperiments forwards the registry listing to a worker: every
// worker runs the same binary, so any live one answers identically.
func (c *Coordinator) handleExperiments(w http.ResponseWriter, r *http.Request) {
	res, worker, err := c.forward(r.Context(), "/v1/experiments", nil, "meta:experiments")
	if err != nil {
		c.coordFail(w, err)
		return
	}
	relay(w, res, worker)
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	c.serveKeyed(w, r, "/v1/sweep", service.KindSweep)
}

func (c *Coordinator) handleSim(w http.ResponseWriter, r *http.Request) {
	c.serveKeyed(w, r, "/v1/sim", service.KindSim)
}

// serveKeyed answers one result request: its body is keyed through the
// memo (a bad request is refused before any routing), then 503 while
// draining, else the coordinator's tier answers, else the request is
// forwarded verbatim to the key's ring owner and the answer remembered.
func (c *Coordinator) serveKeyed(w http.ResponseWriter, r *http.Request, path string, kind service.Kind) {
	c.requests.Add(1)
	raw, err := service.ReadBody(w, r)
	if err != nil {
		c.coordFail(w, err)
		return
	}
	key, err := c.keys.KeyBody(kind, raw)
	if err != nil {
		c.coordFail(w, err)
		return
	}
	if c.isDraining() {
		c.coordFail(w, fmt.Errorf("fabric: coordinator: %w", service.ErrDraining))
		return
	}
	if c.serveRemembered(w, key) {
		return
	}
	res, worker, err := c.forward(r.Context(), path, raw, key)
	if err != nil {
		c.coordFail(w, err)
		return
	}
	c.remember(key, res, worker)
	relay(w, res, worker)
}

// GridRequest is a multi-configuration experiment sweep: one workload
// setting applied to every configuration of a design-space grid. The
// coordinator scatters it — one routed /v1/sim sub-request per
// configuration, each landing on the worker that owns its content
// address — and gathers the results in input order.
type GridRequest struct {
	Configs []experiments.ConfigSpec `json:"configs"`
	// Scale, Level, TimeSlice, MaxInstructions as in service.SimRequest.
	Scale           int    `json:"scale,omitempty"`
	Level           int    `json:"level,omitempty"`
	TimeSlice       uint64 `json:"time_slice,omitempty"`
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
}

// GridEntry is one gathered sub-result: the configuration's content
// address plus the worker's SimResponse body, verbatim. Entries appear
// in the same order as the request's configs, so the merged body is
// deterministic: the same grid always serializes to the same bytes no
// matter which workers answered or in what order.
type GridEntry struct {
	Key      string          `json:"key"`
	Response json.RawMessage `json:"response"`
}

// GridResponse is the merged scatter-gather result.
type GridResponse struct {
	CodeVersion string      `json:"code_version"`
	Count       int         `json:"count"`
	Entries     []GridEntry `json:"entries"`
}

func (c *Coordinator) handleGrid(w http.ResponseWriter, r *http.Request) {
	c.requests.Add(1)
	var req GridRequest
	if err := service.ReadJSON(w, r, &req); err != nil {
		c.coordFail(w, err)
		return
	}
	if len(req.Configs) == 0 {
		c.coordFail(w, fmt.Errorf("%w: grid needs at least one config", service.ErrBadRequest))
		return
	}
	if len(req.Configs) > maxGridConfigs {
		c.coordFail(w, fmt.Errorf("%w: grid of %d configs exceeds the %d bound", service.ErrBadRequest, len(req.Configs), maxGridConfigs))
		return
	}

	// Validate and key every sub-request before routing any: a bad grid
	// point is the client's bug and must not burn cluster work.
	type subReq struct {
		key  string
		body []byte
	}
	subs := make([]subReq, len(req.Configs))
	for i, spec := range req.Configs {
		sr := service.SimRequest{
			Config:          spec,
			Scale:           req.Scale,
			Level:           req.Level,
			TimeSlice:       req.TimeSlice,
			MaxInstructions: req.MaxInstructions,
		}
		key, err := service.SimKey(sr)
		if err != nil {
			c.coordFail(w, fmt.Errorf("config[%d]: %w", i, err))
			return
		}
		body, err := json.Marshal(sr)
		if err != nil {
			c.coordFail(w, fmt.Errorf("config[%d]: marshal: %w", i, err))
			return
		}
		subs[i] = subReq{key: key, body: body}
	}
	if c.isDraining() {
		c.coordFail(w, fmt.Errorf("fabric: coordinator: %w", service.ErrDraining))
		return
	}

	// Scatter the sub-requests the coordinator's tier does not hold
	// under the fan-out bound; gather by index so the merged body is
	// input-ordered regardless of completion order.
	entries := make([]GridEntry, len(subs))
	errs := make([]error, len(subs))
	sem := make(chan struct{}, c.opts.GridFanout)
	var wg sync.WaitGroup
	for i := range subs {
		if body, _, ok := c.results.Get(subs[i].key); ok {
			entries[i] = GridEntry{Key: subs[i].key, Response: body}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-r.Context().Done():
				errs[i] = fmt.Errorf("fabric: grid abandoned: %w", r.Context().Err())
				return
			}
			defer func() { <-sem }()
			res, worker, err := c.forward(r.Context(), "/v1/sim", subs[i].body, subs[i].key)
			if err != nil {
				errs[i] = err
				return
			}
			c.remember(subs[i].key, res, worker)
			entries[i] = GridEntry{Key: subs[i].key, Response: json.RawMessage(res.Body)}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c.coordFail(w, fmt.Errorf("fabric: grid config[%d]: %w", i, err))
			return
		}
	}
	service.WriteJSON(w, http.StatusOK, GridResponse{
		CodeVersion: service.CodeVersion,
		Count:       len(entries),
		Entries:     entries,
	})
}

// RegisterRequest is a worker's heartbeat body.
type RegisterRequest struct {
	ID    string      `json:"id"`
	Addr  string      `json:"addr"`
	Stats WorkerStats `json:"stats"`
}

// RegisterResponse acknowledges a heartbeat and tells the worker how
// fast to come back.
type RegisterResponse struct {
	Status            string  `json:"status"` // joined | ok
	HeartbeatSeconds  float64 `json:"heartbeat_seconds"`
	MembershipVersion uint64  `json:"membership_version"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := service.ReadJSON(w, r, &req); err != nil {
		c.coordFail(w, err)
		return
	}
	if req.ID == "" || req.Addr == "" {
		c.coordFail(w, fmt.Errorf("%w: register needs id and addr", service.ErrBadRequest))
		return
	}
	joined := c.members.Heartbeat(req.ID, req.Addr, req.Stats)
	status := "ok"
	if joined {
		status = "joined"
	}
	service.WriteJSON(w, http.StatusOK, RegisterResponse{
		Status:            status,
		HeartbeatSeconds:  (c.opts.HeartbeatTTL / 3).Seconds(),
		MembershipVersion: c.members.Version(),
	})
}
