package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/service"
)

// fakeWorker is a stand-in cachesimd: it answers every /v1 request with
// a deterministic JSON body (so byte-identity assertions hold no matter
// which worker answers a re-routed request) and stamps its fabric
// identity header and the request's content address like a real worker
// daemon.
type fakeWorker struct {
	id      string
	srv     *httptest.Server
	hits    atomic.Int64
	delayNs atomic.Int64
	// status, when set, is returned with an error body instead of a
	// result; skewKey stamps a content address other than the
	// coordinator's, as a worker built from other code would.
	status  atomic.Int64
	skewKey atomic.Bool
}

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	t.Helper()
	w := &fakeWorker{id: id}
	w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.hits.Add(1)
		if d := w.delayNs.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if st := w.status.Load(); st != 0 {
			http.Error(rw, `{"error":"injected"}`, int(st))
			return
		}
		h := rw.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Cache", "miss")
		key := contentAddress(r.URL.Path, body)
		if w.skewKey.Load() {
			key = "skewed-" + key
		}
		h.Set("X-Cache-Key", key)
		h.Set(service.WorkerHeader, id)
		// Body depends only on the request, never on the worker: real
		// workers are deterministic the same way.
		fmt.Fprintf(rw, `{"path":%q,"echo":%q}`, r.URL.Path, string(body))
	}))
	t.Cleanup(w.srv.Close)
	return w
}

// contentAddress is the key a real worker stamps on a result: the
// service's own SweepKey or SimKey of the request ("" for other paths).
func contentAddress(path string, body []byte) string {
	var key string
	switch path {
	case "/v1/sweep":
		var req service.SweepRequest
		if json.Unmarshal(body, &req) == nil {
			key, _ = service.SweepKey(req)
		}
	case "/v1/sim":
		var req service.SimRequest
		if json.Unmarshal(body, &req) == nil {
			key, _ = service.SimKey(req)
		}
	}
	return key
}

func testCoordOptions() CoordinatorOptions {
	return CoordinatorOptions{
		// Fast-failing legs; the breaker is exercised in client tests.
		Client: client.Options{
			MaxAttempts:      2,
			BaseBackoff:      time.Millisecond,
			MaxBackoff:       5 * time.Millisecond,
			AttemptTimeout:   5 * time.Second,
			BreakerThreshold: -1,
		},
	}
}

func newTestCoordinator(t *testing.T, o CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	c, err := NewCoordinator(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func register(t *testing.T, coordURL string, w *fakeWorker) {
	t.Helper()
	registerAddr(t, coordURL, w.id, w.srv.URL)
}

func registerAddr(t *testing.T, coordURL, id, addr string) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"addr":%q,"stats":{"cache_hits":7,"cache_misses":3,"in_flight":1}}`, id, addr)
	resp, err := http.Post(coordURL+"/v1/fabric/register", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("register %s: %d %s", id, resp.StatusCode, data)
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestCoordinatorNoWorkersIs503(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())

	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig5"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty ring: status %d body %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no workers: %d, want 503", rz.StatusCode)
	}
}

// TestCoordinatorRoutesByContentAddress: every request lands on the
// ring owner of its content address, repeatedly — the property that
// keeps each shard's cache hot and makes the cluster compute nothing
// twice. The repeat goes through a second coordinator over the same
// workers, because the first one answers a repeat from its own tier
// without routing it; the ring is a pure function of the member set, so
// both must pick the same owner.
func TestCoordinatorRoutesByContentAddress(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	_, ts2 := newTestCoordinator(t, testCoordOptions())
	workers := map[string]*fakeWorker{}
	for _, id := range []string{"w1", "w2", "w3"} {
		w := newFakeWorker(t, id)
		workers[id] = w
		register(t, ts.URL, w)
		register(t, ts2.URL, w)
	}

	for scale := 1; scale <= 16; scale++ {
		req := service.SweepRequest{Experiment: "fig5", Scale: scale}
		key, err := service.SweepKey(req)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := c.Membership().Ring().Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"experiment":"fig5","scale":%d}`, scale)
		for rep, coord := range []string{ts.URL, ts2.URL} {
			before := workers[owner].hits.Load()
			resp, data := postJSON(t, coord+"/v1/sweep", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("scale %d: %d %s", scale, resp.StatusCode, data)
			}
			if got := resp.Header.Get(service.WorkerHeader); got != owner {
				t.Fatalf("scale %d rep %d served by %q, ring owner is %q", scale, rep, got, owner)
			}
			if workers[owner].hits.Load() != before+1 {
				t.Fatalf("scale %d rep %d did not reach the owner %q", scale, rep, owner)
			}
		}
	}
	// 16 keys over 3 workers: the deterministic ring spreads them.
	for id, w := range workers {
		if w.hits.Load() == 0 {
			t.Errorf("worker %s received no routes across 16 keys", id)
		}
	}
}

// TestCoordinatorFailover: a dead owner must not surface as an error —
// the coordinator fails over to the next ring replica.
func TestCoordinatorFailover(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	register(t, ts.URL, w1)
	register(t, ts.URL, w2)

	req := service.SweepRequest{Experiment: "fig5"}
	key, err := service.SweepKey(req)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := c.Membership().Ring().Owner(key)
	if err != nil {
		t.Fatal(err)
	}
	victim, survivor := w1, w2
	if owner == "w2" {
		victim, survivor = w2, w1
	}
	victim.srv.Close()

	resp, data := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig5"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(service.WorkerHeader); got != survivor.id {
		t.Fatalf("served by %q, want survivor %q", got, survivor.id)
	}
	if c.failovers.Load() == 0 {
		t.Fatal("failover counter not incremented")
	}

	// After the membership drains the dead worker, routing goes straight
	// to the survivor: no failover hop, no error. The request uses a key
	// the coordinator's tier does not hold, so it is routed.
	c.Membership().Remove(victim.id)
	before, hits := c.failovers.Load(), survivor.hits.Load()
	resp2, data2 := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig5","scale":2}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: %d %s", resp2.StatusCode, data2)
	}
	if got := c.failovers.Load(); got != before {
		t.Fatalf("post-drain request needed a failover (%d -> %d)", before, got)
	}
	if survivor.hits.Load() != hits+1 {
		t.Fatal("post-drain request did not reach the survivor")
	}
}

// TestCoordinatorHedgesSlowOwner: a straggling owner triggers a hedge
// leg at the next replica after HedgeDelay; the fast replica's answer
// wins.
func TestCoordinatorHedgesSlowOwner(t *testing.T) {
	o := testCoordOptions()
	o.HedgeDelay = 10 * time.Millisecond
	c, ts := newTestCoordinator(t, o)
	w1 := newFakeWorker(t, "w1")
	w2 := newFakeWorker(t, "w2")
	register(t, ts.URL, w1)
	register(t, ts.URL, w2)

	key, err := service.SweepKey(service.SweepRequest{Experiment: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := c.Membership().Ring().Owner(key)
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := w1, w2
	if owner == "w2" {
		slow, fast = w2, w1
	}
	slow.delayNs.Store(int64(2 * time.Second))

	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig5"}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(service.WorkerHeader); got != fast.id {
		t.Fatalf("served by %q, want hedge target %q", got, fast.id)
	}
	if c.hedges.Load() == 0 {
		t.Fatal("hedge counter not incremented")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("request waited out the slow owner (%v); the hedge should have won", elapsed)
	}
}

// TestCoordinatorGridScatterGather: a multi-config grid is split into
// per-config sub-requests, routed independently, and merged in input
// order into a byte-stable body.
func TestCoordinatorGridScatterGather(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())
	for _, id := range []string{"w1", "w2", "w3"} {
		register(t, ts.URL, newFakeWorker(t, id))
	}

	grid := `{"configs":[{"preset":"base"},{"preset":"optimized"},{"preset":"base","policy":"wmi"},{"preset":"base","policy":"subblock"}],"level":2}`
	resp, body := postJSON(t, ts.URL+"/v1/grid", grid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: %d %s", resp.StatusCode, body)
	}
	var gr GridResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Count != 4 || len(gr.Entries) != 4 {
		t.Fatalf("grid count %d entries %d, want 4", gr.Count, len(gr.Entries))
	}
	if gr.CodeVersion != service.CodeVersion {
		t.Fatalf("grid code_version %q", gr.CodeVersion)
	}
	// Entries come back in input order, keyed by the same content
	// address the coordinator routes on.
	specs := []experiments.ConfigSpec{
		{Preset: "base"}, {Preset: "optimized"},
		{Preset: "base", Policy: "wmi"}, {Preset: "base", Policy: "subblock"},
	}
	for i, spec := range specs {
		want, err := service.SimKey(service.SimRequest{Config: spec, Level: 2})
		if err != nil {
			t.Fatal(err)
		}
		if gr.Entries[i].Key != want {
			t.Fatalf("entry %d key %s, want %s", i, gr.Entries[i].Key, want)
		}
		if !bytes.Contains(gr.Entries[i].Response, []byte("/v1/sim")) {
			t.Fatalf("entry %d response not from /v1/sim: %s", i, gr.Entries[i].Response)
		}
	}

	// The merged body is deterministic: same grid, same bytes.
	resp2, body2 := postJSON(t, ts.URL+"/v1/grid", grid)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("grid repeat: %d", resp2.StatusCode)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("grid responses differ between identical requests:\n%s\nvs\n%s", body, body2)
	}
}

func TestCoordinatorGridValidation(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())
	w := newFakeWorker(t, "w1")
	register(t, ts.URL, w)

	cases := []struct{ name, body string }{
		{"empty grid", `{"configs":[]}`},
		{"bad preset", `{"configs":[{"preset":"turbo"}]}`},
		{"bad scale", `{"configs":[{"preset":"base"}],"scale":9999}`},
		{"unknown field", `{"configs":[{"preset":"base"}],"screening":true}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/grid", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", c.name, resp.StatusCode, body)
		}
	}
	if w.hits.Load() != 0 {
		t.Fatalf("invalid grids reached a worker %d times; validation must be local", w.hits.Load())
	}
}

func TestCoordinatorClusterReport(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())
	register(t, ts.URL, newFakeWorker(t, "w1"))
	register(t, ts.URL, newFakeWorker(t, "w2"))
	if resp, data := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig5"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, data)
	}

	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var cs ClusterState
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatalf("cluster decode: %v\n%s", err, body)
	}
	if cs.CodeVersion != service.CodeVersion || cs.Vnodes != DefaultVnodes || cs.Replicas != 2 {
		t.Fatalf("cluster header fields wrong: %+v", cs)
	}
	if cs.RingVersion == 0 {
		t.Fatal("ring_version is 0 after two joins")
	}
	if len(cs.Workers) != 2 || cs.Workers[0].ID != "w1" || cs.Workers[1].ID != "w2" {
		t.Fatalf("workers not sorted by id: %+v", cs.Workers)
	}
	var routed uint64
	for _, w := range cs.Workers {
		if w.Stats.CacheHits != 7 || w.Stats.CacheMisses != 3 || w.Stats.InFlight != 1 {
			t.Fatalf("worker %s heartbeat stats lost: %+v", w.ID, w.Stats)
		}
		routed += w.Routing.Routed
	}
	if routed == 0 {
		t.Fatal("no worker shows a routed request after a served sweep")
	}
}

func TestCoordinatorRejectsBadRequests(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())
	w := newFakeWorker(t, "w1")
	register(t, ts.URL, w)

	cases := []struct{ name, path, body string }{
		{"unknown experiment", "/v1/sweep", `{"experiment":"fig99"}`},
		{"unknown field", "/v1/sweep", `{"experiment":"fig5","screening":true}`},
		{"bad sim scale", "/v1/sim", `{"config":{"preset":"base"},"scale":-1}`},
		{"register missing id", "/v1/fabric/register", `{"addr":"http://x"}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", c.name, resp.StatusCode, body)
		}
	}
	if w.hits.Load() != 0 {
		t.Fatalf("invalid requests reached a worker %d times", w.hits.Load())
	}
}

// TestCoordinatorExperimentsProxy: the registry listing is forwarded to
// a live worker so clients see the workers' own capabilities.
func TestCoordinatorExperimentsProxy(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())
	register(t, ts.URL, newFakeWorker(t, "w1"))

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments proxy: %d %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("/v1/experiments")) {
		t.Fatalf("experiments response not proxied: %s", body)
	}
	if resp.Header.Get(service.WorkerHeader) != "w1" {
		t.Fatal("proxied response lost worker attribution")
	}
}

// TestCoordinatorDrain: a draining coordinator refuses result requests
// with 503, including one its own tier could answer and whose body its
// key memo holds.
func TestCoordinatorDrain(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	register(t, ts.URL, newFakeWorker(t, "w1"))
	if resp, data := postJSON(t, ts.URL+"/v1/sweep", `{"experiment":"fig5"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep before drain: %d %s", resp.StatusCode, data)
	}
	if n := c.keys.Len(); n != 1 {
		t.Fatalf("the key memo holds %d bodies before the drain, want the sweep's", n)
	}
	c.BeginDrain()

	// The held sweep is sent twice: its body is keyed from the memo, and
	// the drain still refuses it.
	for _, req := range []struct{ path, body string }{
		{"/v1/sweep", `{"experiment":"fig5"}`},
		{"/v1/sweep", `{"experiment":"fig5"}`},
		{"/v1/sim", `{"config":{"preset":"base"}}`},
		{"/v1/grid", `{"configs":[{"preset":"base"}]}`},
	} {
		resp, _ := postJSON(t, ts.URL+req.path, req.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining %s: %d, want 503", req.path, resp.StatusCode)
		}
	}
	if st := c.results.Stats(); st.Hits != 0 {
		t.Fatalf("a draining coordinator served %d results from its tier", st.Hits)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Body.Close()
	data, err := io.ReadAll(rz.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rz.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(data, []byte("draining")) {
		t.Fatalf("readyz while draining: %d %s", rz.StatusCode, data)
	}
}

// TestRegistrarHeartbeats: the worker-side loop registers immediately,
// keeps beating, reports stats, and stops on context cancel.
func TestRegistrarHeartbeats(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hits atomic.Uint64
	reg, err := StartRegistrar(ctx, RegistrarOptions{
		Coordinator: ts.URL,
		ID:          "w-reg",
		Addr:        "http://127.0.0.1:1",
		Interval:    5 * time.Millisecond,
		Stats:       func() WorkerStats { return WorkerStats{CacheHits: hits.Add(1)} },
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for reg.Beats() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d beats after 2s (failures=%d)", reg.Beats(), reg.Failures())
		}
		time.Sleep(time.Millisecond)
	}
	snap := c.Membership().Snapshot()
	if len(snap) != 1 || snap[0].ID != "w-reg" || snap[0].Stats.CacheHits == 0 {
		t.Fatalf("membership after heartbeats: %+v", snap)
	}

	cancel()
	reg.Wait()
	stopped := reg.Beats()
	time.Sleep(20 * time.Millisecond)
	if reg.Beats() != stopped {
		t.Fatal("registrar kept beating after cancel")
	}
}

func TestRegistrarValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := StartRegistrar(ctx, RegistrarOptions{ID: "x"}); err == nil {
		t.Fatal("registrar without coordinator/addr must fail")
	}
}
