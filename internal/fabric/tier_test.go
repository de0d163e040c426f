package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/service"
)

// getJSON decodes a GET response body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, data)
	}
}

func totalHits(workers ...*fakeWorker) (n int64) {
	for _, w := range workers {
		n += w.hits.Load()
	}
	return n
}

// TestCoordinatorTierServesRepeat: a repeated request is answered by
// the coordinator's own tier with the first response's bytes and
// producing worker, and the owning worker sees the key exactly once.
// /metrics and /v1/cluster report the tier's counters.
func TestCoordinatorTierServesRepeat(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())
	w1, w2 := newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	register(t, ts.URL, w1)
	register(t, ts.URL, w2)

	var stored int64
	for _, tc := range []struct{ path, first, repeat string }{
		// The repeat spells the defaults out: one content address.
		{"/v1/sweep", `{"experiment":"fig5"}`, `{"experiment":"fig5","scale":1,"level":8,"fidelity":"exact"}`},
		{"/v1/sim", `{"config":{"preset":"optimized"},"max_instructions":1000}`, `{"config":{"preset":"optimized"},"max_instructions":1000}`},
	} {
		before := totalHits(w1, w2)
		resp1, body1 := postJSON(t, ts.URL+tc.path, tc.first)
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s first: %d %s", tc.path, resp1.StatusCode, body1)
		}
		if tier := resp1.Header.Get("X-Cache-Tier"); tier == "coordinator" {
			t.Fatalf("%s first request served by the coordinator tier", tc.path)
		}
		resp2, body2 := postJSON(t, ts.URL+tc.path, tc.repeat)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s repeat: %d %s", tc.path, resp2.StatusCode, body2)
		}
		h := resp2.Header
		if h.Get("X-Cache") != "hit" || h.Get("X-Cache-Tier") != "coordinator" {
			t.Fatalf("%s repeat: X-Cache=%q X-Cache-Tier=%q, want hit from the coordinator tier",
				tc.path, h.Get("X-Cache"), h.Get("X-Cache-Tier"))
		}
		if got, want := h.Get(service.WorkerHeader), resp1.Header.Get(service.WorkerHeader); got != want {
			t.Fatalf("%s repeat attributed to %q, first response to %q", tc.path, got, want)
		}
		if got, want := h.Get("X-Cache-Key"), resp1.Header.Get("X-Cache-Key"); got != want {
			t.Fatalf("%s repeat key %q, first %q", tc.path, got, want)
		}
		if h.Get("X-Fabric-Attempts") != "0" || h.Get("Content-Type") != "application/json" {
			t.Fatalf("%s repeat: X-Fabric-Attempts=%q Content-Type=%q", tc.path, h.Get("X-Fabric-Attempts"), h.Get("Content-Type"))
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s repeat bytes differ:\n%s\nvs\n%s", tc.path, body1, body2)
		}
		if n := totalHits(w1, w2) - before; n != 1 {
			t.Fatalf("%s: workers saw the key %d times, want 1", tc.path, n)
		}
		stored += int64(len(body1))
	}

	want := service.CacheStats{Entries: 2, Bytes: stored, Hits: 2, Misses: 2, HitRatio: 0.5}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Cache != want {
		t.Fatalf("/metrics cache %+v, want %+v", m.Cache, want)
	}
	var cs ClusterState
	getJSON(t, ts.URL+"/v1/cluster", &cs)
	if cs.Cache != want {
		t.Fatalf("/v1/cluster cache %+v, want %+v", cs.Cache, want)
	}
}

// TestCoordinatorTierSkipsUncacheable: bytes are remembered only from a
// 2xx leg whose X-Cache-Key is the coordinator's own key. A worker that
// addresses results differently, or answers with an error, is asked
// again every time.
func TestCoordinatorTierSkipsUncacheable(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	w1, w2 := newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	register(t, ts.URL, w1)
	register(t, ts.URL, w2)
	const body = `{"experiment":"fig5"}`

	w1.skewKey.Store(true)
	w2.skewKey.Store(true)
	for rep := 0; rep < 2; rep++ {
		before := totalHits(w1, w2)
		resp, data := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache-Tier") == "coordinator" {
			t.Fatalf("skewed rep %d: %d tier %q %s", rep, resp.StatusCode, resp.Header.Get("X-Cache-Tier"), data)
		}
		if totalHits(w1, w2) == before {
			t.Fatalf("skewed rep %d never reached a worker", rep)
		}
	}

	w1.skewKey.Store(false)
	w2.skewKey.Store(false)
	w1.status.Store(http.StatusBadRequest)
	w2.status.Store(http.StatusBadRequest)
	for rep := 0; rep < 2; rep++ {
		before := totalHits(w1, w2)
		if resp, data := postJSON(t, ts.URL+"/v1/sweep", body); resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("failing rep %d: %d %s, want 502", rep, resp.StatusCode, data)
		}
		if totalHits(w1, w2) == before {
			t.Fatalf("failing rep %d never reached a worker", rep)
		}
	}
	if st := c.results.Stats(); st.Entries != 0 {
		t.Fatalf("tier holds %d entries after skewed and failed legs", st.Entries)
	}

	// The guard itself, on leg results the client never returns today.
	key, err := service.SweepKey(service.SweepRequest{Experiment: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	keyed := http.Header{"X-Cache-Key": {key}}
	c.remember(key, client.Result{Status: http.StatusInternalServerError, Header: keyed, Body: []byte("{}")}, "w1")
	c.remember(key, client.Result{Status: http.StatusOK, Header: http.Header{"X-Cache-Key": {"other"}}, Body: []byte("{}")}, "w1")
	if st := c.results.Stats(); st.Entries != 0 {
		t.Fatalf("remember kept a non-2xx or foreign-keyed leg (%d entries)", st.Entries)
	}

	// Once the worker answers properly, the next repeat is remembered.
	w1.status.Store(0)
	w2.status.Store(0)
	postJSON(t, ts.URL+"/v1/sweep", body)
	if resp, _ := postJSON(t, ts.URL+"/v1/sweep", body); resp.Header.Get("X-Cache-Tier") != "coordinator" {
		t.Fatalf("healthy repeat tier %q, want coordinator", resp.Header.Get("X-Cache-Tier"))
	}
}

// TestCoordinatorTierGrid: /v1/grid sub-requests fill the tier and are
// served from it, sharing entries with /v1/sim, and the merged body
// stays byte-identical.
func TestCoordinatorTierGrid(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	for _, w := range ws {
		register(t, ts.URL, w)
	}

	grid := `{"configs":[{"preset":"base"},{"preset":"optimized"},{"preset":"base","policy":"wmi"}],"level":2}`
	resp, body := postJSON(t, ts.URL+"/v1/grid", grid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: %d %s", resp.StatusCode, body)
	}
	if n := totalHits(ws...); n != 3 {
		t.Fatalf("first grid reached workers %d times, want 3", n)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/grid", grid)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("repeat grid: status %d, byte-identical=%v", resp2.StatusCode, bytes.Equal(body, body2))
	}
	if n := totalHits(ws...); n != 3 {
		t.Fatalf("repeat grid reached workers (%d legs in all), want none", n)
	}

	// A grid point is the /v1/sim request of its config: the tier
	// answers the single request with the grid's sub-result.
	var gr GridResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	simResp, simBody := postJSON(t, ts.URL+"/v1/sim", `{"config":{"preset":"optimized"},"level":2}`)
	if simResp.Header.Get("X-Cache-Tier") != "coordinator" {
		t.Fatalf("sim of a grid point: tier %q, want coordinator", simResp.Header.Get("X-Cache-Tier"))
	}
	var want bytes.Buffer
	if err := json.Compact(&want, gr.Entries[1].Response); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(simBody, want.Bytes()) {
		t.Fatalf("sim body %s differs from the grid entry %s", simBody, want.Bytes())
	}

	// A grid with one new point forwards only that point.
	grown := `{"configs":[{"preset":"base"},{"preset":"optimized"},{"preset":"base","policy":"wmi"},{"preset":"base","policy":"subblock"}],"level":2}`
	if resp, data := postJSON(t, ts.URL+"/v1/grid", grown); resp.StatusCode != http.StatusOK {
		t.Fatalf("grown grid: %d %s", resp.StatusCode, data)
	}
	if n := totalHits(ws...); n != 4 {
		t.Fatalf("grown grid: workers saw %d legs in all, want 4", n)
	}
}

// TestCoordinatorTierConcurrent: concurrent fills and hits of a few keys
// return each key's one body every time (run it under -race).
func TestCoordinatorTierConcurrent(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	ws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	for _, w := range ws {
		register(t, ts.URL, w)
	}
	const keys, clients, perClient = 6, 8, 24
	bodies := make([]string, keys)
	for k := range bodies {
		bodies[k] = fmt.Sprintf(`{"experiment":"fig5","max_instructions":%d}`, 1000+k)
	}

	var mu sync.Mutex
	seen := map[string][]byte{}
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := bodies[(g+i)%keys]
				resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader([]byte(req)))
				if err != nil {
					errs <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: %d %v", req, resp.StatusCode, err)
					return
				}
				mu.Lock()
				if prev, ok := seen[req]; ok && !bytes.Equal(prev, data) {
					errs <- fmt.Errorf("%s: two different bodies", req)
				}
				seen[req] = data
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.results.Stats()
	if st.Entries != keys || st.Hits+st.Misses != clients*perClient {
		t.Fatalf("tier stats %+v after %d requests over %d keys", st, clients*perClient, keys)
	}
	if legs := totalHits(ws...); legs != int64(st.Misses) {
		t.Fatalf("workers saw %d legs, tier missed %d times", legs, st.Misses)
	}
}

// TestCoordinatorTierBound: the tier holds at most resultEntries
// results and drops the least recently used first; the key memo in
// front of it holds at most as many bodies.
func TestCoordinatorTierBound(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	w := newFakeWorker(t, "w1")
	register(t, ts.URL, w)
	body := func(i int) string { return fmt.Sprintf(`{"experiment":"fig5","max_instructions":%d}`, 1000+i) }
	for i := 0; i <= resultEntries; i++ {
		if resp, data := postJSON(t, ts.URL+"/v1/sweep", body(i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, data)
		}
	}
	if st := c.results.Stats(); st.Entries != resultEntries || st.Evictions != 1 {
		t.Fatalf("tier stats %+v after %d keys, want %d entries and 1 eviction", st, resultEntries+1, resultEntries)
	}
	if n := c.keys.Len(); n != resultEntries {
		t.Fatalf("the key memo holds %d bodies after %d distinct ones, want %d", n, resultEntries+1, resultEntries)
	}
	before := w.hits.Load()
	if resp, _ := postJSON(t, ts.URL+"/v1/sweep", body(0)); resp.Header.Get("X-Cache-Tier") == "coordinator" || w.hits.Load() != before+1 {
		t.Fatal("the least recently used key was not the one evicted")
	}
}
