// Package client is the resilient HTTP client shared by everything
// that talks to a cachesimd daemon (cmd/simload today, the distributed
// sweep fabric next). It exists because the server deliberately sheds
// load — 429 when the admission queue is full, 503 while draining — and
// a client that treats those as hard failures turns graceful
// degradation into an outage. Three standard mechanisms, composed:
//
//   - retries with exponential backoff and full jitter, honoring a
//     Retry-After header on 429/503 so the server's own pacing wins;
//   - a per-attempt deadline, so one wedged request cannot absorb the
//     whole retry budget;
//   - a circuit breaker per endpoint: after enough consecutive failures
//     against one server the client fails fast for a cooldown instead
//     of hammering it, then lets one probe through (half-open) to test
//     recovery. Breakers are keyed by scheme://host, so in a cluster
//     one bad worker trips its own circuit without blacklisting the
//     rest of the ring (the coordinator depends on this isolation).
//
// Retrying is sound here for the same reason caching is: results are
// content-addressed and deterministic, so a replayed request is
// idempotent by construction.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrBreakerOpen fails a call fast while the circuit is open.
	ErrBreakerOpen = errors.New("client: circuit breaker open")
	// ErrExhausted wraps the final attempt's error once the retry
	// budget is spent.
	ErrExhausted = errors.New("client: retries exhausted")
)

// Options tunes the client. Zero values take the documented defaults.
type Options struct {
	// MaxAttempts bounds tries per call, first included (default 4).
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (default 100ms); the
	// delay before attempt k is jittered in [base<<k / 2, base<<k].
	BaseBackoff time.Duration
	// MaxBackoff caps any single delay, including server-requested
	// Retry-After waits (default 5s).
	MaxBackoff time.Duration
	// AttemptTimeout is the per-attempt deadline (default 2 minutes).
	AttemptTimeout time.Duration
	// BreakerThreshold opens the circuit after this many consecutive
	// call failures (default 8; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before a
	// half-open probe (default 2s).
	BreakerCooldown time.Duration
	// Seed drives the jitter PRNG; calls with the same seed and
	// outcome sequence back off identically (default 1).
	Seed uint64
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.AttemptTimeout == 0 {
		o.AttemptTimeout = 2 * time.Minute
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	return o
}

// Validate rejects unusable options.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.MaxAttempts < 1 || o.MaxAttempts > 100 {
		return fmt.Errorf("client: max attempts must be in [1,100] (got %d)", o.MaxAttempts)
	}
	if o.BaseBackoff < 0 || o.MaxBackoff < o.BaseBackoff {
		return fmt.Errorf("client: bad backoff bounds (base=%v max=%v)", o.BaseBackoff, o.MaxBackoff)
	}
	if o.AttemptTimeout <= 0 {
		return fmt.Errorf("client: attempt timeout must be > 0 (got %v)", o.AttemptTimeout)
	}
	return nil
}

// Result is one successful (2xx) response, body fully read.
type Result struct {
	Status   int
	Header   http.Header
	Body     []byte
	Attempts int
}

// Stats counts what resilience cost: how often the client retried,
// slept on a server's Retry-After, or failed fast on an open breaker.
// Breaker counters aggregate over every endpoint the client has talked
// to; BreakerStates breaks them out per endpoint.
type Stats struct {
	Calls          uint64 `json:"calls"`
	Attempts       uint64 `json:"attempts"`
	Retries        uint64 `json:"retries"`
	RetryAfterObey uint64 `json:"retry_after_obeyed"`
	BreakerRejects uint64 `json:"breaker_rejects"`
	BreakerOpens   uint64 `json:"breaker_opens"`
}

type breakerPhase int

const (
	breakerClosed breakerPhase = iota
	breakerOpen
	breakerHalfOpen
)

func (p breakerPhase) String() string {
	switch p {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is the circuit state of one endpoint. All fields are guarded
// by the owning Client's mutex.
type breaker struct {
	phase    breakerPhase
	failures int       // consecutive failed calls
	openedAt time.Time // when the circuit opened
	probing  bool      // a half-open probe is in flight
	rejects  uint64
	opens    uint64
}

// BreakerState is the externally visible circuit state of one endpoint,
// reported by BreakerStates (and surfaced per worker on the
// coordinator's /v1/cluster).
type BreakerState struct {
	Endpoint string `json:"endpoint"`
	Phase    string `json:"phase"` // closed | open | half-open
	Failures int    `json:"consecutive_failures"`
	Opens    uint64 `json:"opens"`
	Rejects  uint64 `json:"rejects"`
}

// splitmix64 is the repo's deterministic PRNG (see
// internal/faultinject); used here for backoff jitter so load-test runs
// replay the same schedule from the same seed.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Client is a resilient HTTP caller. Safe for concurrent use.
type Client struct {
	opts Options

	mu       sync.Mutex
	rng      splitmix64
	breakers map[string]*breaker // endpoint (scheme://host) -> circuit
	stats    Stats

	// Injectable clocks for tests.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
}

// New builds a client with validated options.
func New(o Options) (*Client, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	return &Client{
		opts:     o,
		rng:      splitmix64{state: o.Seed},
		breakers: make(map[string]*breaker),
		//lint:allow determinism breaker cooldowns are operational timing, never part of a result body
		now:   func() time.Time { return time.Now() },
		sleep: sleepCtx,
	}, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("client: backoff interrupted: %w", ctx.Err())
	}
}

// Stats snapshots the resilience counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// BreakerStates snapshots every endpoint's circuit, sorted by endpoint
// so the report order is stable.
func (c *Client) BreakerStates() []BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	eps := make([]string, 0, len(c.breakers))
	//lint:allow determinism keys are collected and sorted below
	for ep := range c.breakers {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	states := make([]BreakerState, 0, len(eps))
	for _, ep := range eps {
		b := c.breakers[ep]
		states = append(states, BreakerState{
			Endpoint: ep,
			Phase:    b.phase.String(),
			Failures: b.failures,
			Opens:    b.opens,
			Rejects:  b.rejects,
		})
	}
	return states
}

// Endpoint reduces a request URL to its breaker key: the server it
// names (scheme://host). Exported so the fabric coordinator can join
// its per-worker view (worker addr) with this client's per-endpoint
// breaker states.
func Endpoint(rawurl string) string { return endpointOf(rawurl) }

// endpointOf reduces a request URL to its breaker key: the server it
// names (scheme://host). Every path on one server shares a circuit;
// distinct servers never share one. An unparseable URL falls back to
// the raw string — it still gets a consistent (if over-precise) key.
func endpointOf(rawurl string) string {
	u, err := url.Parse(rawurl)
	if err != nil || u.Host == "" {
		return rawurl
	}
	return u.Scheme + "://" + u.Host
}

// breakerFor returns the endpoint's circuit, creating a closed one on
// first contact. Caller must hold c.mu.
func (c *Client) breakerFor(endpoint string) *breaker {
	b, ok := c.breakers[endpoint]
	if !ok {
		b = &breaker{}
		c.breakers[endpoint] = b
	}
	return b
}

// PostJSON posts body to url with retries, per-attempt deadlines, and
// the circuit breaker; it returns the first 2xx response. Non-retryable
// statuses (4xx other than 429) return an error immediately.
func (c *Client) PostJSON(ctx context.Context, url string, body []byte) (Result, error) {
	return c.call(ctx, endpointOf(url), func(actx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("client: build request: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
}

// Get fetches url under the same resilience policy as PostJSON.
func (c *Client) Get(ctx context.Context, url string) (Result, error) {
	return c.call(ctx, endpointOf(url), func(actx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
		if err != nil {
			return nil, fmt.Errorf("client: build request: %w", err)
		}
		return req, nil
	})
}

func (c *Client) call(ctx context.Context, endpoint string, build func(context.Context) (*http.Request, error)) (Result, error) {
	if err := c.admit(endpoint); err != nil {
		return Result{}, err
	}
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.stats.Attempts++
		c.mu.Unlock()

		res, retryable, wait, err := c.attempt(ctx, build)
		if err == nil {
			res.Attempts = attempt + 1
			c.settle(endpoint, true)
			return res, nil
		}
		lastErr = err
		if !retryable || attempt == c.opts.MaxAttempts-1 {
			break
		}
		if err := c.sleep(ctx, c.backoff(attempt, wait)); err != nil {
			lastErr = err
			break
		}
	}
	c.settle(endpoint, false)
	return Result{}, fmt.Errorf("%w: %w", ErrExhausted, lastErr)
}

// attempt runs one HTTP exchange under the per-attempt deadline,
// classifying the outcome: retryable or not, plus any server-requested
// wait from a Retry-After header.
func (c *Client) attempt(ctx context.Context, build func(context.Context) (*http.Request, error)) (res Result, retryable bool, wait time.Duration, err error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.AttemptTimeout)
	defer cancel()
	req, err := build(actx)
	if err != nil {
		return Result{}, false, 0, err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		// Transport errors (connection refused, reset, attempt
		// deadline) are retryable unless the caller's own context is
		// done.
		return Result{}, ctx.Err() == nil, 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return Result{}, ctx.Err() == nil, 0, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return Result{Status: resp.StatusCode, Header: resp.Header, Body: data}, false, 0, nil
	}
	err = fmt.Errorf("client: server returned %d: %s", resp.StatusCode, truncate(data, 200))
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		wait = c.retryAfter(resp.Header)
		return Result{}, true, wait, err
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return Result{}, true, 0, err
	}
	return Result{}, false, 0, err
}

// maxPresized caps the buffer readBody sizes from a Content-Length
// header, so a header cannot make the client allocate more than this up
// front. Served results are 1-3 KB.
const maxPresized = 64 << 10

// readBody reads a response body. A body of known length up to
// maxPresized is read into one buffer of exactly that size; any other
// body grows through io.ReadAll as it arrives.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresized {
		return io.ReadAll(resp.Body)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// retryAfter parses a Retry-After header (delta-seconds or HTTP-date),
// capped at MaxBackoff.
func (c *Client) retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(v); err == nil {
		d = t.Sub(c.now())
	}
	if d <= 0 {
		return 0
	}
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	c.mu.Lock()
	c.stats.RetryAfterObey++
	c.mu.Unlock()
	return d
}

// backoff computes the delay before retrying attempt (0-based): the
// server's Retry-After when given, otherwise exponential with full
// jitter in [d/2, d].
func (c *Client) backoff(attempt int, serverWait time.Duration) time.Duration {
	if serverWait > 0 {
		return serverWait
	}
	d := c.opts.BaseBackoff << uint(attempt)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	c.mu.Lock()
	f := c.rng.float()
	c.mu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// admit applies the endpoint's circuit breaker at call entry.
func (c *Client) admit(endpoint string) error {
	if c.opts.BreakerThreshold < 0 {
		c.mu.Lock()
		c.stats.Calls++
		c.mu.Unlock()
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Calls++
	b := c.breakerFor(endpoint)
	switch b.phase {
	case breakerClosed:
		return nil
	case breakerOpen:
		if c.now().Sub(b.openedAt) >= c.opts.BreakerCooldown {
			b.phase = breakerHalfOpen
			b.probing = true
			return nil // this call is the probe
		}
	case breakerHalfOpen:
		if !b.probing {
			b.probing = true
			return nil
		}
	}
	b.rejects++
	c.stats.BreakerRejects++
	return fmt.Errorf("%w: %s (cooldown %v)", ErrBreakerOpen, endpoint, c.opts.BreakerCooldown)
}

// settle records a call outcome in the endpoint's breaker.
func (c *Client) settle(endpoint string, ok bool) {
	if c.opts.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakerFor(endpoint)
	b.probing = false
	if ok {
		b.failures = 0
		b.phase = breakerClosed
		return
	}
	b.failures++
	if b.phase == breakerHalfOpen || b.failures >= c.opts.BreakerThreshold {
		if b.phase != breakerOpen {
			b.opens++
			c.stats.BreakerOpens++
		}
		b.phase = breakerOpen
		b.openedAt = c.now()
		b.failures = 0
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
