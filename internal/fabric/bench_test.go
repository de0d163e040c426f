package fabric

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// benchFabric is a coordinator in front of one real service.Server
// worker, both serving on loopback, with the first keys /v1/sim
// results already computed on the worker.
type benchFabric struct {
	coordURL string
	hc       *http.Client
	bodies   []string
	b        *testing.B
}

// newBenchFabric starts the fabric and computes keys tiny /v1/sim
// results directly on the worker, so they sit in its memory LRU.
func newBenchFabric(b *testing.B, keys int) *benchFabric {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	c, err := NewCoordinator(ctx, CoordinatorOptions{HeartbeatTTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := service.New(service.Options{WorkerID: "w1"})
	if err != nil {
		b.Fatal(err)
	}
	worker := httptest.NewServer(srv.Handler())
	b.Cleanup(worker.Close)
	coord := httptest.NewServer(c.Handler())
	b.Cleanup(coord.Close)
	c.Membership().Heartbeat("w1", worker.URL, WorkerStats{})

	f := &benchFabric{coordURL: coord.URL, hc: coord.Client(), b: b}
	for i := 0; i < keys; i++ {
		body := fmt.Sprintf(`{"config":{"preset":"base"},"level":1,"max_instructions":%d}`, 1000+i)
		f.post(worker.URL, body)
		f.bodies = append(f.bodies, body)
	}
	return f
}

// post sends one /v1/sim request and returns the tier that served it.
func (f *benchFabric) post(base, body string) string {
	resp, err := f.hc.Post(base+"/v1/sim", "application/json", strings.NewReader(body))
	if err != nil {
		f.b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		f.b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.b.Fatalf("%s: status %d", body, resp.StatusCode)
	}
	return resp.Header.Get("X-Cache-Tier")
}

// run times b.N requests through the coordinator, cycling through the
// fabric's keys in order, and checks every one was served by tier.
func (f *benchFabric) run(tier string) {
	b := f.b
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := f.post(f.coordURL, f.bodies[i%len(f.bodies)]); got != tier {
			b.Fatalf("request %d served by tier %q, want %s", i, got, tier)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/req")
}

// BenchmarkCoordinatorHit measures a hit in the coordinator's own tier:
// one loopback exchange with the coordinator, which decodes, validates
// and keys the request and writes the remembered body. allocs/op counts
// client and coordinator alike.
func BenchmarkCoordinatorHit(b *testing.B) {
	f := newBenchFabric(b, 1)
	f.post(f.coordURL, f.bodies[0]) // the coordinator remembers the key
	f.run("coordinator")
}

// BenchmarkForwardHop measures a coordinator miss answered from the
// worker's memory LRU: the coordinator's work plus the forward hop to
// the worker and the relay. Cycling in order through twice as many keys
// as the coordinator's tier holds makes every tier lookup miss while
// the worker, whose LRU holds them all, hits. allocs/op counts client,
// coordinator and worker alike.
func BenchmarkForwardHop(b *testing.B) {
	f := newBenchFabric(b, 2*resultEntries)
	f.run("memory")
}
