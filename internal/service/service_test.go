package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
)

// newTestServer builds a Server with an injected sweep runner, so tests
// can count and pace "simulations" without paying for real ones.
func newTestServer(t testing.TB, o Options, runSweep func(SweepRequest) (string, error)) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if runSweep != nil {
		s.runSweep = runSweep
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestSweepComputesThenHitsCacheByteIdentical(t *testing.T) {
	var runs atomic.Int32
	_, ts := newTestServer(t, Options{}, func(req SweepRequest) (string, error) {
		runs.Add(1)
		return "table for " + req.Experiment, nil
	})

	resp1, body1 := postSweep(t, ts, `{"experiment":"fig5"}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache %q, want miss", got)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body1, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Output != "table for fig5" || sr.Scale != 1 || sr.Level != 8 || sr.CodeVersion != CodeVersion {
		t.Fatalf("response %+v", sr)
	}

	resp2, body2 := postSweep(t, ts, `{"experiment":"fig5"}`)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat request X-Cache %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit not byte-identical:\nfirst:  %s\nsecond: %s", body1, body2)
	}
	// Normalization: explicit defaults spell the same cache key.
	resp3, body3 := postSweep(t, ts, `{"experiment":"fig5","scale":1,"level":8}`)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("normalized spelling X-Cache %q, want hit", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("normalized spelling returned different bytes")
	}
	if runs.Load() != 1 {
		t.Fatalf("%d simulations ran, want 1", runs.Load())
	}
	if resp1.Header.Get("X-Cache-Key") == "" ||
		resp1.Header.Get("X-Cache-Key") != resp2.Header.Get("X-Cache-Key") {
		t.Fatal("cache keys missing or unstable across identical requests")
	}
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 4}, func(req SweepRequest) (string, error) {
		runs.Add(1)
		close(started)
		<-release
		return "slow result", nil
	})

	const followers = 7
	results := make(chan []byte, followers+1)
	sources := make(chan string, followers+1)
	post := func() {
		resp, body := postSweep(t, ts, `{"experiment":"fig2"}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d: %s", resp.StatusCode, body)
		}
		results <- body
		sources <- resp.Header.Get("X-Cache")
	}
	go post() // leader
	<-started
	for i := 0; i < followers; i++ {
		go post()
	}
	// Give the followers time to join the in-progress flight, then let
	// the one simulation finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	var first []byte
	coalesced := 0
	for i := 0; i < followers+1; i++ {
		body := <-results
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatal("coalesced responses differ")
		}
		if src := <-sources; src == "coalesced" {
			coalesced++
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d simulations ran for %d concurrent identical requests, want 1", got, followers+1)
	}
	if coalesced == 0 {
		t.Fatal("no request reported X-Cache: coalesced")
	}
	if s.Metrics().Coalesced == 0 {
		t.Fatal("coalesced counter not incremented")
	}
}

func TestDistinctRequestsDoNotCoalesce(t *testing.T) {
	var runs atomic.Int32
	_, ts := newTestServer(t, Options{Workers: 2}, func(req SweepRequest) (string, error) {
		runs.Add(1)
		return req.Experiment, nil
	})
	postSweep(t, ts, `{"experiment":"fig2"}`)
	postSweep(t, ts, `{"experiment":"fig3"}`)
	postSweep(t, ts, `{"experiment":"fig2","scale":2}`)
	if runs.Load() != 3 {
		t.Fatalf("%d simulations, want 3 (distinct requests must not share results)", runs.Load())
	}
}

func TestOverloadShedsWith429(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1}, func(req SweepRequest) (string, error) {
		started <- struct{}{}
		<-release
		return "ok", nil
	})
	defer close(release)

	statuses := make(chan int, 2)
	go func() { // occupies the single worker slot
		resp, _ := postSweep(t, ts, `{"experiment":"fig2"}`)
		statuses <- resp.StatusCode
	}()
	<-started
	go func() { // fills the queue
		resp, _ := postSweep(t, ts, `{"experiment":"fig3"}`)
		statuses <- resp.StatusCode
	}()
	// Wait until the second request is queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// The third distinct request must be shed immediately.
	resp, body := postSweep(t, ts, `{"experiment":"fig4"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if s.Metrics().Overloads != 1 {
		t.Fatalf("overloads %d, want 1", s.Metrics().Overloads)
	}
	release <- struct{}{}
	release <- struct{}{}
	for i := 0; i < 2; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Fatalf("queued/running request finished with %d", code)
		}
	}
}

func TestValidationRejects(t *testing.T) {
	var runs atomic.Int32
	_, ts := newTestServer(t, Options{}, func(req SweepRequest) (string, error) {
		runs.Add(1)
		return "", nil
	})
	cases := []string{
		`{"experiment":"nope"}`,
		`{}`,
		fmt.Sprintf(`{"experiment":"fig2","scale":%d}`, MaxScale+1),
		`{"experiment":"fig2","scale":-1}`,
		fmt.Sprintf(`{"experiment":"fig2","level":%d}`, MaxLevel+1),
		`{"experiment":"fig2","unknown_field":1}`,
		`not json at all`,
	}
	for _, body := range cases {
		resp, data := postSweep(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d (%s), want 400", body, resp.StatusCode, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s -> non-JSON error body %q", body, data)
		}
	}
	if runs.Load() != 0 {
		t.Fatalf("%d simulations ran for invalid requests", runs.Load())
	}
}

func TestPanicIsRecoveredAndSlotReleased(t *testing.T) {
	calls := 0
	_, ts := newTestServer(t, Options{Workers: 1}, func(req SweepRequest) (string, error) {
		calls++
		if calls == 1 {
			panic("simulated configuration bug")
		}
		return "fine", nil
	})
	resp, body := postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run -> %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Fatalf("error body %q does not mention the panic", body)
	}
	// A failed run must not poison the cache and must release its slot.
	resp, _ = postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic -> %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("request after panic X-Cache %q, want miss (failures are not cached)", got)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Options{RequestTimeout: 30 * time.Millisecond},
		func(req SweepRequest) (string, error) {
			<-release
			return "", nil
		})
	resp, body := postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hung run -> %d (%s), want 504", resp.StatusCode, body)
	}
}

func TestDrainCompletesInFlightAndRejectsNew(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.runSweep = func(req SweepRequest) (string, error) {
		close(started)
		<-release
		return "drained result", nil
	}
	ts := httptest.NewServer(s.Handler())

	inFlight := make(chan *http.Response, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"experiment":"fig2"}`))
		inFlight <- resp
	}()
	<-started

	// SIGTERM sequence, as cmd/cachesimd performs it: BeginDrain, then
	// http.Server.Shutdown, which waits for in-flight handlers.
	s.BeginDrain()
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain -> %d, want 503", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain -> %d, want 200", resp.StatusCode)
	}
	// New simulation work is refused during the drain.
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"experiment":"fig3"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain -> %d, want 503", resp.StatusCode)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- ts.Config.Shutdown(context.Background()) }()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release) // let the in-flight simulation finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-inFlight
	if r == nil {
		t.Fatal("in-flight request failed during drain")
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.Contains(string(body), "drained result") {
		t.Fatalf("in-flight request -> %d %q, want 200 with the result", r.StatusCode, body)
	}
	s.Abort()
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{}, func(req SweepRequest) (string, error) {
		return "x", nil
	})
	postSweep(t, ts, `{"experiment":"fig2"}`) // miss
	postSweep(t, ts, `{"experiment":"fig2"}`) // hit
	postSweep(t, ts, `{"experiment":"zzz"}`)  // 400

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m MetricsSnapshot
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, data)
	}
	if m.Requests != 3 || m.Errors != 1 {
		t.Fatalf("requests=%d errors=%d, want 3/1\n%s", m.Requests, m.Errors, data)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 || m.Cache.Entries != 1 {
		t.Fatalf("cache stats %+v", m.Cache)
	}
	if m.Latency.Count != 2 || m.LatencyHits.Count != 1 || m.LatencyMisses.Count != 1 {
		t.Fatalf("latency counts %+v %+v %+v", m.Latency, m.LatencyHits, m.LatencyMisses)
	}
	if m.CodeVersion != CodeVersion || m.UptimeSeconds < 0 {
		t.Fatalf("snapshot %+v", m)
	}
}

func TestHealthzAndExperimentsList(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz -> %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list []struct{ ID, Title string }
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 || list[0].ID == "" {
		t.Fatalf("experiment list %s", data)
	}
}

// TestSweepEndToEndRealExperiment exercises the real runner path with
// the one registered experiment that needs no simulation (the
// implementation-cost table), keeping the test fast while proving the
// registry wiring end to end.
func TestSweepEndToEndRealExperiment(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	resp, body := postSweep(t, ts, `{"experiment":"cost"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sr.Output, "tag") && len(sr.Output) == 0 {
		t.Fatalf("implausible cost table output %q", sr.Output)
	}
	_, body2 := postSweep(t, ts, `{"experiment":"cost"}`)
	if !bytes.Equal(body, body2) {
		t.Fatal("real experiment repeat not byte-identical")
	}
}

func TestSimEndpointCachesReport(t *testing.T) {
	var runs atomic.Int32
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.runSim = func(req SimRequest) (report.Report, error) {
		runs.Add(1)
		return report.Report{Config: "test-config", Instructions: 42, CPI: 2.5}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	req := `{"config":{"preset":"optimized"},"max_instructions":1000}`
	resp1, body1 := post(req)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first sim: %d %s (%s)", resp1.StatusCode, resp1.Header.Get("X-Cache"), body1)
	}
	var sr SimResponse
	if err := json.Unmarshal(body1, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Report.Config != "test-config" || sr.Request.Scale != 1 || sr.Request.TimeSlice != 500_000 {
		t.Fatalf("sim response %+v", sr)
	}
	resp2, body2 := post(req)
	if resp2.Header.Get("X-Cache") != "hit" || !bytes.Equal(body1, body2) {
		t.Fatal("sim repeat not a byte-identical cache hit")
	}
	// A different configuration is a different content address.
	resp3, _ := post(`{"config":{"preset":"base"},"max_instructions":1000}`)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Fatal("different config unexpectedly hit the cache")
	}
	if runs.Load() != 2 {
		t.Fatalf("%d sim runs, want 2", runs.Load())
	}
	// Invalid configs are rejected before any run.
	resp4, _ := post(`{"config":{"preset":"base","policy":"wmi","lps":"dirtybit"}}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config -> %d, want 400", resp4.StatusCode)
	}
}

func TestCacheLRUBoundAndStats(t *testing.T) {
	c := NewCache(2)
	c.Put("a", "w1", []byte("aaaa"))
	c.Put("b", "w2", []byte("bb"))
	if _, origin, ok := c.Get("a"); !ok || origin != "w1" { // refresh a; b is now LRU
		t.Fatalf("a missing or origin %q, want w1", origin)
	}
	c.Put("c", "w2", []byte("cccccc")) // evicts b
	c.Put("c", "w3", []byte("cccccc")) // already held: first origin kept
	if _, origin, _ := c.Get("c"); origin != "w2" {
		t.Fatalf("c origin %q after a second Put, want the first, w2", origin)
	}
	if _, _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != int64(len("aaaa")+len("cccccc")) {
		t.Fatalf("bytes %d", st.Bytes)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hit/miss %+v", st)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Workers: -1},
		{Workers: maxWorkers + 1},
		{QueueDepth: -5},
		{CacheEntries: -1},
		{RequestTimeout: -time.Second},
		{Parallelism: -2},
		{Parallelism: 5000},
	}
	for _, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if _, err := New(Options{}); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
}

// TestCoalesceGroupDirect covers the follower-abandon path: a follower
// whose context ends keeps the leader running and intact.
func TestCoalesceGroupDirect(t *testing.T) {
	g := newGroup()
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var leaderBody []byte
	var leaderErr error
	go func() {
		defer wg.Done()
		leaderBody, _, leaderErr = g.do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.do(ctx, "k", nil); err == nil {
		t.Fatal("abandoned follower got no error")
	}
	close(release)
	wg.Wait()
	if leaderErr != nil || string(leaderBody) != "v" {
		t.Fatalf("leader: %q %v", leaderBody, leaderErr)
	}
}
