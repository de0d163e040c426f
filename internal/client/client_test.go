package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// newTestClient builds a client with instant sleeps and a controllable
// clock so breaker cooldowns advance without real waiting.
func newTestClient(t *testing.T, o Options) (*Client, *time.Time) {
	t.Helper()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c.now = func() time.Time { return clock }
	c.sleep = func(ctx context.Context, d time.Duration) error {
		clock = clock.Add(d)
		return ctx.Err()
	}
	return c, &clock
}

func TestSuccessFirstTry(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c, _ := newTestClient(t, Options{})
	res, err := c.PostJSON(context.Background(), srv.URL, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Status != 200 || string(res.Body) != `{"ok":true}` {
		t.Fatalf("res = %+v", res)
	}
	if res.Header.Get("X-Cache") != "hit" {
		t.Fatal("headers not propagated")
	}
	st := c.Stats()
	if st.Calls != 1 || st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRetryAfterIsHonored(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("done"))
	}))
	defer srv.Close()

	c, _ := newTestClient(t, Options{})
	var slept []time.Duration
	base := c.sleep
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return base(ctx, d)
	}
	res, err := c.PostJSON(context.Background(), srv.URL, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
	for i, d := range slept {
		if d != 2*time.Second {
			t.Fatalf("sleep %d = %v, want the server's 2s Retry-After", i, d)
		}
	}
	if st := c.Stats(); st.RetryAfterObey != 2 || st.Retries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRetryAfterCappedAtMaxBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c, _ := newTestClient(t, Options{MaxAttempts: 2, MaxBackoff: time.Second})
	var slept time.Duration
	base := c.sleep
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = d
		return base(ctx, d)
	}
	if _, err := c.Get(context.Background(), srv.URL); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if slept != time.Second {
		t.Fatalf("slept %v, want the 1s MaxBackoff cap", slept)
	}
}

func TestExhaustionWrapsLastError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c, _ := newTestClient(t, Options{MaxAttempts: 3})
	_, err := c.PostJSON(context.Background(), srv.URL, []byte(`{}`))
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestNonRetryableStatusFailsFast(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()
	c, _ := newTestClient(t, Options{MaxAttempts: 5})
	if _, err := c.PostJSON(context.Background(), srv.URL, []byte(`x`)); err == nil {
		t.Fatal("400 must fail")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400 retried: server saw %d attempts", got)
	}
}

func TestTransportErrorsRetry(t *testing.T) {
	// A server that is down: connection refused is retryable.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()
	c, _ := newTestClient(t, Options{MaxAttempts: 3})
	if _, err := c.Get(context.Background(), url); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted after retrying refused connections", err)
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

func TestBreakerOpensFailsFastThenRecovers(t *testing.T) {
	var healthy atomic.Bool
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			w.Write([]byte("ok"))
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c, clock := newTestClient(t, Options{
		MaxAttempts: 1, BreakerThreshold: 3, BreakerCooldown: 2 * time.Second,
	})
	ctx := context.Background()

	// Three failed calls open the circuit.
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, srv.URL); !errors.Is(err, ErrExhausted) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1: %+v", st.BreakerOpens, st)
	}

	// While open, calls fail fast without touching the server.
	before := calls.Load()
	if _, err := c.Get(ctx, srv.URL); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker let a call through: %v", err)
	}
	if calls.Load() != before {
		t.Fatal("fast-failed call still reached the server")
	}

	// After the cooldown a probe goes through; server still down, so the
	// circuit re-opens.
	*clock = clock.Add(3 * time.Second)
	if _, err := c.Get(ctx, srv.URL); !errors.Is(err, ErrExhausted) {
		t.Fatalf("probe: %v", err)
	}
	if calls.Load() != before+1 {
		t.Fatal("half-open probe did not reach the server")
	}
	if _, err := c.Get(ctx, srv.URL); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("failed probe must re-open the circuit: %v", err)
	}

	// Server recovers; next probe closes the circuit for good.
	healthy.Store(true)
	*clock = clock.Add(3 * time.Second)
	if res, err := c.Get(ctx, srv.URL); err != nil || string(res.Body) != "ok" {
		t.Fatalf("recovery probe: %v", err)
	}
	if res, err := c.Get(ctx, srv.URL); err != nil || string(res.Body) != "ok" {
		t.Fatalf("closed circuit: %v", err)
	}
	if st := c.Stats(); st.BreakerRejects != 2 {
		t.Fatalf("breaker rejects = %d, want 2: %+v", st.BreakerRejects, st)
	}
}

// TestBreakerIsolationPerEndpoint pins the cluster-critical property:
// circuits are per endpoint, so one dead worker trips its own breaker
// while calls to a healthy worker keep flowing — and the healthy
// worker's successes never reset the dead worker's failure count.
func TestBreakerIsolationPerEndpoint(t *testing.T) {
	var healthyCalls, deadCalls atomic.Int64
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		healthyCalls.Add(1)
		w.Write([]byte("ok"))
	}))
	defer healthy.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadCalls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	c, _ := newTestClient(t, Options{MaxAttempts: 1, BreakerThreshold: 3})
	ctx := context.Background()

	// Interleave: failures against dead must accumulate even though
	// healthy keeps succeeding in between.
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, dead.URL); !errors.Is(err, ErrExhausted) {
			t.Fatalf("dead call %d: %v", i, err)
		}
		if _, err := c.Get(ctx, healthy.URL); err != nil {
			t.Fatalf("healthy call %d: %v", i, err)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want exactly the dead endpoint's: %+v", st.BreakerOpens, st)
	}

	// The dead endpoint fails fast; the healthy one is untouched by it.
	if _, err := c.Get(ctx, dead.URL); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("dead endpoint circuit not open: %v", err)
	}
	before := healthyCalls.Load()
	if _, err := c.Get(ctx, healthy.URL); err != nil {
		t.Fatalf("healthy endpoint caught the dead one's breaker: %v", err)
	}
	if healthyCalls.Load() != before+1 {
		t.Fatal("healthy call did not reach its server")
	}

	states := c.BreakerStates()
	if len(states) != 2 {
		t.Fatalf("breaker states = %d endpoints, want 2: %+v", len(states), states)
	}
	byEp := map[string]BreakerState{}
	for _, s := range states {
		byEp[s.Endpoint] = s
	}
	if s := byEp[endpointOf(dead.URL)]; s.Phase != "open" || s.Opens != 1 || s.Rejects != 1 {
		t.Fatalf("dead endpoint state %+v", s)
	}
	if s := byEp[endpointOf(healthy.URL)]; s.Phase != "closed" || s.Opens != 0 {
		t.Fatalf("healthy endpoint state %+v", s)
	}
}

func TestEndpointOf(t *testing.T) {
	cases := [][2]string{
		{"http://localhost:8344/v1/sweep", "http://localhost:8344"},
		{"http://localhost:8344/v1/sim", "http://localhost:8344"},
		{"https://a.example:9/x?y=z", "https://a.example:9"},
		{"not a url", "not a url"},
	}
	for _, c := range cases {
		if got := endpointOf(c[0]); got != c[1] {
			t.Errorf("endpointOf(%q) = %q, want %q", c[0], got, c[1])
		}
	}
	if endpointOf("http://h:1/a") == endpointOf("http://h:2/a") {
		t.Error("distinct ports must be distinct endpoints")
	}
}

func TestBreakerDisabled(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c, _ := newTestClient(t, Options{MaxAttempts: 1, BreakerThreshold: -1})
	for i := 0; i < 20; i++ {
		if _, err := c.Get(context.Background(), srv.URL); errors.Is(err, ErrBreakerOpen) {
			t.Fatal("disabled breaker opened")
		}
	}
}

func TestAttemptDeadline(t *testing.T) {
	release := make(chan struct{})
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			<-release // wedge the first attempt past its deadline
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	defer close(release)

	c, err := New(Options{MaxAttempts: 2, AttemptTimeout: 50 * time.Millisecond, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("second attempt should have rescued the call: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("call took %v; the wedged attempt was not cut off", took)
	}
}

func TestCanceledContextStopsRetrying(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c, err := New(Options{MaxAttempts: 50, BaseBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Get(ctx, srv.URL); err == nil {
		t.Fatal("want error after context cancel")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("retry loop outlived its context by %v", took)
	}
}

func TestBackoffScheduleIsSeedDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		c, err := New(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var ds []time.Duration
		for i := 0; i < 8; i++ {
			ds = append(ds, c.backoff(i%4, 0))
		}
		return ds
	}
	a, b := schedule(9), schedule(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different jitter at %d: %v vs %v", i, a[i], b[i])
		}
		base := 100 * time.Millisecond << uint(i%4)
		if a[i] < base/2 || a[i] > base {
			t.Fatalf("backoff %d = %v outside [%v, %v]", i, a[i], base/2, base)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{MaxAttempts: 101},
		{BaseBackoff: 2 * time.Second, MaxBackoff: time.Second},
		{AttemptTimeout: -time.Second},
	}
	for _, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if _, err := New(Options{}); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

// TestBodyOfKnownLengthReadExactly: a body with a Content-Length up to
// maxPresized lands in a buffer of exactly its size; a chunked body or
// one declared past the cap is read in full as it arrives; a body
// shorter than its declared length is an error.
func TestBodyOfKnownLengthReadExactly(t *testing.T) {
	big := make([]byte, maxPresized+1)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/known":
			w.Header().Set("Content-Length", strconv.Itoa(3000))
			w.Write(big[:3000])
		case "/chunked":
			w.Write(big[:1500])
			w.(http.Flusher).Flush() // commits to chunked framing
			w.Write(big[1500:3000])
		case "/over-cap":
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			w.Write(big)
		case "/short":
			w.Header().Set("Content-Length", "3000")
			w.Write(big[:10])
		}
	}))
	defer srv.Close()
	c, _ := newTestClient(t, Options{MaxAttempts: 1})
	for _, tc := range []struct {
		path    string
		want    []byte
		exactly bool
	}{
		{"/known", big[:3000], true},
		{"/chunked", big[:3000], false},
		{"/over-cap", big, false},
	} {
		res, err := c.Get(context.Background(), srv.URL+tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if !bytes.Equal(res.Body, tc.want) {
			t.Fatalf("%s: read %d bytes, want %d", tc.path, len(res.Body), len(tc.want))
		}
		if tc.exactly && cap(res.Body) != len(res.Body) {
			t.Fatalf("%s: buffer cap %d for a %d-byte body", tc.path, cap(res.Body), len(res.Body))
		}
	}
	if _, err := c.Get(context.Background(), srv.URL+"/short"); err == nil {
		t.Fatal("a body shorter than its Content-Length was accepted")
	}
}

// TestDeclaredLengthNotPreallocated: a response that declares 1 MiB and
// breaks off after 20 bytes, as net/http reports it, is an error, and
// reading it does not allocate the declared size.
func TestDeclaredLengthNotPreallocated(t *testing.T) {
	short := io.MultiReader(strings.NewReader(`{"experiment":"fig5"`), iotest.ErrReader(io.ErrUnexpectedEOF))
	resp := &http.Response{ContentLength: 1 << 20, Body: io.NopCloser(short)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBody(resp)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body shorter than its Content-Length was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<19 {
		t.Fatalf("allocated %d bytes for a 20-byte body declared at 1 MiB", n)
	}
}

// cannedTransport answers every request with status and a 2-byte body
// without touching the network.
type cannedTransport int

func (status cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{StatusCode: int(status), ContentLength: 2, Body: io.NopCloser(strings.NewReader("ok")),
		Header: http.Header{}, Request: req}, nil
}

// TestBreakerKeyMatchesEndpoint pins the breaker key a call files its
// outcome under: for every URL, including ones with no host, user info
// or an upper-case scheme, and one that does not parse, the key is
// Endpoint's, whether the call posts or gets. An empty port, which
// http.NewRequest drops from the URL it parses, stays in the key.
func TestBreakerKeyMatchesEndpoint(t *testing.T) {
	urls := []string{
		"http://localhost:8344/v1/sweep",
		"https://a.example:9/x?y=z",
		"http://[::1]:8344/v1/sim",
		"HTTP://upper.example/x",
		"http://user@h:1/a",
		"http://h:/a",
		"http://[::1]:/a",
		"http://user@h:/a",
		"//h:2/a",
		"not a url",
		"http://[::1/unparseable",
	}
	for _, post := range []bool{false, true} {
		c, _ := newTestClient(t, Options{MaxAttempts: 1, HTTPClient: &http.Client{Transport: cannedTransport(http.StatusInternalServerError)}})
		for _, u := range urls {
			var err error
			if post {
				_, err = c.PostJSON(context.Background(), u, []byte(`{}`))
			} else {
				_, err = c.Get(context.Background(), u)
			}
			if err == nil {
				t.Fatalf("%s: a 500 succeeded", u)
			}
		}
		var got []string
		for _, b := range c.BreakerStates() {
			got = append(got, b.Endpoint)
		}
		var want []string
		for _, u := range urls {
			want = append(want, Endpoint(u))
		}
		slices.Sort(got)
		slices.Sort(want)
		want = slices.Compact(want) // two URLs share "http://h:"
		if !slices.Equal(got, want) {
			t.Errorf("post %v: breakers keyed %q, want %q", post, got, want)
		}
	}
}

// TestCallParsesURLOnce pins what a call allocates beyond the request it
// sends: a PostJSON or Get that succeeds at once against a transport
// that needs no network allocates at most 5 more times than building
// the same request and sending it directly does. A client that parses
// the URL for the breaker key and again to build the request makes 6.
func TestCallParsesURLOnce(t *testing.T) {
	hc := &http.Client{Transport: cannedTransport(http.StatusOK)}
	c, _ := newTestClient(t, Options{HTTPClient: hc})
	const u = "http://localhost:8344/v1/sim"
	body := []byte(`{"config":{"preset":"optimized"}}`)
	direct := func(method string, b io.Reader) {
		req, err := http.NewRequestWithContext(context.Background(), method, u, b)
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readBody(resp)
		resp.Body.Close()
	}
	for _, tc := range []struct {
		name   string
		call   func()
		direct func()
	}{
		{"PostJSON", func() { c.PostJSON(context.Background(), u, body) }, func() { direct(http.MethodPost, bytes.NewReader(body)) }},
		{"Get", func() { c.Get(context.Background(), u) }, func() { direct(http.MethodGet, nil) }},
	} {
		call, base := testing.AllocsPerRun(100, tc.call), testing.AllocsPerRun(100, tc.direct)
		if call-base > 5 {
			t.Errorf("%s allocates %.0f times, %.0f more than sending its request directly; want at most 5 more", tc.name, call, call-base)
		}
	}
}
