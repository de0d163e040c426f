package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// corruptNewestSegment flips a byte deep inside the newest segment file
// so its final record fails CRC verification on the next recovery.
func corruptNewestSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 {
		t.Fatalf("segment %s implausibly small (%d bytes)", seg, len(data))
	}
	data[len(data)-8] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func openStore(t testing.TB, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newStoreServer builds a Server owning a disk store in dir. The server
// owns the store: its Close (registered via cleanup) closes it.
func newStoreServer(t *testing.T, dir string, runSweep func(SweepRequest) (string, error)) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if runSweep != nil {
		s.runSweep = runSweep
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestStoreTierRecoversResultsAcrossRestart is the serving-layer view
// of the tentpole: results computed by one daemon process are served as
// cache hits — byte-identical — by the next one, without recomputing.
func TestStoreTierRecoversResultsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int32
	runner := func(req SweepRequest) (string, error) {
		runs.Add(1)
		return "expensive table for " + req.Experiment, nil
	}

	s1, ts1 := newStoreServer(t, dir, runner)
	resp1, body1 := postSweep(t, ts1, `{"experiment":"fig5"}`)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first compute: %d %s", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	ts1.Close()
	if err := s1.Close(); err != nil { // daemon restarts cleanly
		t.Fatal(err)
	}

	_, ts2 := newStoreServer(t, dir, runner)
	resp2, body2 := postSweep(t, ts2, `{"experiment":"fig5"}`)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("after restart X-Cache %q, want hit", got)
	}
	if got := resp2.Header.Get("X-Cache-Tier"); got != "disk" {
		t.Fatalf("after restart X-Cache-Tier %q, want disk", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("restart hit not byte-identical:\nbefore: %s\nafter:  %s", body1, body2)
	}
	// The disk hit was promoted: the next repeat is a memory hit.
	resp3, body3 := postSweep(t, ts2, `{"experiment":"fig5"}`)
	if resp3.Header.Get("X-Cache") != "hit" || resp3.Header.Get("X-Cache-Tier") != "memory" {
		t.Fatalf("promotion: X-Cache %q tier %q", resp3.Header.Get("X-Cache"), resp3.Header.Get("X-Cache-Tier"))
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("memory-promoted bytes differ")
	}
	if runs.Load() != 1 {
		t.Fatalf("%d simulations across the restart, want 1", runs.Load())
	}
}

// TestStoreSweepsStaleCodeVersion: entries recorded under an older
// CodeVersion are unreachable and reclaimed when the server starts.
func TestStoreSweepsStaleCodeVersion(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Put("gaascache-sim/0/deadbeef", []byte("stale result")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(storeKey("cafef00d"), []byte("current result")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	s, _ := newStoreServer(t, dir, nil)
	if s.store.Len() != 1 {
		t.Fatalf("store holds %d entries after the version sweep, want 1", s.store.Len())
	}
	if _, ok := s.store.Get(storeKey("cafef00d")); !ok {
		t.Fatal("current-version entry swept")
	}
}

// TestReadyzDegradedWhenStoreFailed: a daemon asked for a disk tier
// that would not open keeps serving memory-only and says so.
func TestReadyzDegradedWhenStoreFailed(t *testing.T) {
	s, err := New(Options{StoreOpenError: "open /bad/dir: permission denied"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz degraded -> %d, want 200 (degraded still serves)", resp.StatusCode)
	}
	var body struct {
		Status string       `json:"status"`
		Store  StoreMetrics `json:"store"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("readyz not JSON: %v\n%s", err, data)
	}
	if body.Status != "degraded" || body.Store.Mode != "degraded" {
		t.Fatalf("readyz %+v, want degraded", body)
	}
	if !strings.Contains(body.Store.Error, "permission denied") {
		t.Fatalf("degraded readyz hides the cause: %+v", body)
	}
	// And the daemon still computes.
	resp2, _ := postSweep(t, ts, `{"experiment":"cost"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("degraded daemon refused work: %d", resp2.StatusCode)
	}
}

func TestReadyzReadyWithStore(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), nil)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var body struct {
		Status string       `json:"status"`
		Store  StoreMetrics `json:"store"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body.Status != "ready" || body.Store.Mode != "disk" {
		t.Fatalf("readyz %d %+v", resp.StatusCode, body)
	}
	if body.Store.Stats == nil {
		t.Fatal("readyz with a store must include its stats (recovery counts)")
	}
}

// TestMetricsReportStoreTier: /metrics exposes the store section with
// recovery counts and put errors.
func TestMetricsReportStoreTier(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir(), func(req SweepRequest) (string, error) {
		return "x", nil
	})
	postSweep(t, ts, `{"experiment":"fig2"}`)

	m := s.Metrics()
	if m.Store.Mode != "disk" || m.Store.Stats == nil {
		t.Fatalf("metrics store section %+v", m.Store)
	}
	if m.Store.Stats.Puts != 1 || m.Store.Stats.Entries != 1 {
		t.Fatalf("store stats %+v, want the computed result persisted", m.Store.Stats)
	}
	// The memory-only default says so too.
	s2, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mode := s2.Metrics().Store.Mode; mode != "memory-only" {
		t.Fatalf("memory-only server reports store mode %q", mode)
	}
}

// TestStorePutFailureDoesNotFailRequest: losing durability for one
// entry must not fail the request that computed it.
func TestStorePutFailureDoesNotFailRequest(t *testing.T) {
	dir := t.TempDir()
	set := faultinject.New(7, faultinject.Rule{
		Site: faultinject.SiteWrite, Kind: faultinject.KindError,
	})
	st, err := store.Open(store.Options{
		Dir: dir, Sync: store.SyncNever, FS: faultinject.WrapFS(store.OS, set),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	s.runSweep = func(req SweepRequest) (string, error) { return "fresh", nil }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	resp, body := postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request failed with the store down: %d %s", resp.StatusCode, body)
	}
	if got := s.Metrics().Store.PutErrors; got != 1 {
		t.Fatalf("store put errors %d, want 1", got)
	}
	// The result still serves from memory.
	resp2, _ := postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatal("memory tier lost the result too")
	}
}

// TestFaultRunnerInjectsComputeFailure wires faultinject.Runner around
// the sweep runner the way a chaos deployment would, proving injected
// compute faults surface as clean HTTP errors, not cached poison.
func TestFaultRunnerInjectsComputeFailure(t *testing.T) {
	set := faultinject.New(7, faultinject.Rule{
		Site: "runner.sweep", Times: 1, Kind: faultinject.KindError,
	})
	var runs atomic.Int32
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.runSweep = func(req SweepRequest) (string, error) {
		return faultinject.Runner(set, "runner.sweep", func() (string, error) {
			runs.Add(1)
			return "computed", nil
		})()
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected failure -> %d (%s), want 500", resp.StatusCode, body)
	}
	if runs.Load() != 0 {
		t.Fatal("injected error must replace the compute, not race it")
	}
	// The failure was not cached; the retry computes.
	resp2, _ := postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "miss" {
		t.Fatalf("retry after injected failure: %d %s", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if runs.Load() != 1 {
		t.Fatalf("retry ran %d computes, want 1", runs.Load())
	}
}

// TestDrainTurnsInternalErrorsInto503: a compute failing while the
// drain is underway reports "retry elsewhere", not "server bug".
func TestDrainTurnsInternalErrorsInto503(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{}, func(req SweepRequest) (string, error) {
		close(started)
		<-release
		return "", errors.New("backend exploded")
	})

	done := make(chan *http.Response, 1)
	go func() {
		resp, _ := postSweep(t, ts, `{"experiment":"fig2"}`)
		done <- resp
	}()
	<-started
	s.BeginDrain()
	close(release)
	resp := <-done
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("in-flight failure during drain -> %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain must carry Retry-After for resilient clients")
	}
}

// TestShedCarriesRetryAfter: the 429 shed path tells clients how long
// to pause, which internal/client obeys.
func TestShedCarriesRetryAfter(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1}, func(req SweepRequest) (string, error) {
		started <- struct{}{}
		<-release
		return "ok", nil
	})
	defer close(release)
	bgPost := func(body string) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	go bgPost(`{"experiment":"fig2"}`)
	<-started
	go bgPost(`{"experiment":"fig3"}`)
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := postSweep(t, ts, `{"experiment":"fig4"}`)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestServerCloseFlushesStore: Close is the SIGTERM path; everything
// acknowledged before it must be on disk afterwards.
func TestServerCloseFlushesStore(t *testing.T) {
	dir := t.TempDir()
	s, ts := newStoreServer(t, dir, func(req SweepRequest) (string, error) {
		return "durable result", nil
	})
	_, body := postSweep(t, ts, `{"experiment":"fig2"}`)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v (want idempotent)", err)
	}
	if !s.isDraining() {
		t.Fatal("Close must begin the drain")
	}

	// A fresh server over the same directory serves the same bytes.
	_, ts2 := newStoreServer(t, dir, nil)
	resp2, body2 := postSweep(t, ts2, `{"experiment":"fig2"}`)
	if resp2.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, body2) {
		t.Fatalf("flushed result not recovered: X-Cache %q", resp2.Header.Get("X-Cache"))
	}
}

// TestStoreCorruptionNeverServed: a corrupted store entry is detected
// (CRC), counted, and recomputed — the client never sees bad bytes.
func TestStoreCorruptionNeverServed(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int32
	runner := func(req SweepRequest) (string, error) {
		runs.Add(1)
		return "good result", nil
	}
	s1, ts1 := newStoreServer(t, dir, runner)
	_, body1 := postSweep(t, ts1, `{"experiment":"fig2"}`)
	ts1.Close()
	s1.Close()

	// Rot every segment byte range that could hold the record body.
	corruptNewestSegment(t, dir)

	s2, ts2 := newStoreServer(t, dir, runner)
	resp, body2 := postSweep(t, ts2, `{"experiment":"fig2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompute after corruption: %d", resp.StatusCode)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("recomputed bytes differ from the originals (determinism broken)")
	}
	if runs.Load() != 2 {
		t.Fatalf("%d runs, want 2 (the corrupt entry must be recomputed, not served)", runs.Load())
	}
	m := s2.Metrics()
	if m.Store.Stats == nil {
		t.Fatal("no store stats")
	}
	if m.Store.Stats.Corruptions == 0 &&
		m.Store.Stats.Recovery.CorruptRecords+m.Store.Stats.Recovery.TornTails == 0 {
		t.Fatalf("corruption undetected: %+v", m.Store.Stats)
	}
}
