package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// directKey is the unmemoized reference: a fresh strict decode of body
// (its own json.Decoder, not the service's), then SweepKey or SimKey.
func directKey(kind Kind, body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch kind {
	case KindSweep:
		var req SweepRequest
		if err := dec.Decode(&req); err != nil {
			return "", fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		return SweepKey(req)
	default:
		var req SimRequest
		if err := dec.Decode(&req); err != nil {
			return "", fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		return SimKey(req)
	}
}

// keyBodySeeds are request bodies for both kinds: valid ones, spellings
// with defaults omitted or spelled out, unknown fields, trailing bytes,
// out-of-range scale or level, and bad fidelities.
var keyBodySeeds = []string{
	`{"experiment":"fig5"}`,
	`{"experiment":"fig5","scale":1,"level":8,"fidelity":"exact"}`,
	`{"experiment":"fig5","scale":0,"level":0,"fidelity":""}`,
	` { "level" : 8 , "experiment" : "fig5" } `,
	`{"experiment":"fig6","fidelity":"screening","level":3,"max_instructions":150000}`,
	`{"experiment":"table2","fidelity":"sampled","max_instructions":200000}`,
	`{"config":{"preset":"optimized"},"max_instructions":100000}`,
	`{"config":{"preset":"optimized"},"scale":1,"level":8,"time_slice":500000,"max_instructions":100000}`,
	`{"config":{"preset":"base","policy":"writeonly","l2_kw":64,"split":true,"lps":"dirtybit"},"level":4}`,
	`{}`,
	`null`,
	`{"experiment":"fig5","screening":true}`,
	`{"config":{"preset":"base","bogus":1}}`,
	`{"experiment":"fig5"} trailing`,
	`{"experiment":"fig5"}{"experiment":"fig6"}`,
	`{"config":{}}` + "\n\n",
	`{"experiment":"fig5","scale":65}`,
	`{"experiment":"fig5","level":-1}`,
	`{"config":{"preset":"base"},"scale":1000}`,
	`{"config":{"preset":"base"},"level":65}`,
	`{"experiment":"fig5","fidelity":"bogus"}`,
	`{"experiment":"fig2","fidelity":"screening"}`,
	`{"experiment":"no-such"}`,
	`{"config":{"preset":"nope"}}`,
	`{"experiment":`,
	``,
	`[]`,
	`{"experiment":"fig5","max_instructions":-1}`,
}

// FuzzKeyBodyMatchesDirect holds the memoized keying to the direct
// path: for every drawn body, under both kinds, the first call and a
// repeat return the direct path's key, or an error wrapping
// ErrBadRequest where it fails. A failure is never filed, nor is a body
// over the size bound.
func FuzzKeyBodyMatchesDirect(f *testing.F) {
	for _, s := range keyBodySeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"experiment":"fig5"` + strings.Repeat(" ", smallBodyBytes) + `}`))
	shared := NewKeyMemo(4) // small, so runs also evict
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, kind := range []Kind{KindSweep, KindSim} {
			want, wantErr := directKey(kind, body)
			fresh := NewKeyMemo(4)
			for _, m := range []*KeyMemo{fresh, fresh, shared, shared} {
				got, err := m.KeyBody(kind, body)
				switch {
				case wantErr != nil && !errors.Is(err, ErrBadRequest):
					t.Fatalf("kind %d %q: memo gave (%q, %v); direct path failed: %v", kind, body, got, err, wantErr)
				case wantErr == nil && (err != nil || got != want):
					t.Fatalf("kind %d %q: memo gave (%q, %v), direct path %q", kind, body, got, err, want)
				}
			}
			filed := 0
			if wantErr == nil && len(body) <= smallBodyBytes {
				filed = 1
			}
			if n := fresh.Len(); n != filed {
				t.Fatalf("kind %d %q: memo holds %d bodies, want %d (direct error: %v)", kind, body, n, filed, wantErr)
			}
		}
	})
}

// TestKeyMemoBound: the memo holds at most its bound, drops the least
// recently used body first, keys the kinds apart, and files no failure.
func TestKeyMemoBound(t *testing.T) {
	m := NewKeyMemo(2)
	body := func(i int) []byte { return []byte(fmt.Sprintf(`{"experiment":"fig5","max_instructions":%d}`, i)) }
	for i := 0; i < 3; i++ {
		if _, err := m.KeyBody(KindSweep, body(i)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			m.KeyBody(KindSweep, body(0)) // body 1 is now least recent
		}
	}
	m.mu.Lock()
	_, has0 := m.bodies.items[string(body(0))]
	_, has1 := m.bodies.items[string(body(1))]
	m.mu.Unlock()
	if m.Len() != 2 || !has0 || has1 {
		t.Fatalf("after 3 bodies over a bound of 2: %d filed, body 0 filed %v, body 1 filed %v", m.Len(), has0, has1)
	}
	if _, err := m.KeyBody(KindSim, body(0)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("a filed sweep body keyed as a sim: %v, want a bad request", err)
	}
	if _, err := m.KeyBody(KindSweep, []byte(`{"experiment":"fig99"}`)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown experiment: %v, want a bad request", err)
	}
	if m.Len() != 2 {
		t.Fatalf("failures were filed: memo holds %d bodies", m.Len())
	}
}

// TestServedKeysStrict: the daemon keys each result request on the
// strict path. A repeated invalid body is refused with 400 every time
// and never runs; two spellings of one sweep, and one padded past
// smallBodyBytes, share one cache entry and one run, with the same
// bytes.
func TestServedKeysStrict(t *testing.T) {
	var runs atomic.Int32
	s, ts := newTestServer(t, Options{CacheEntries: 4}, func(req SweepRequest) (string, error) {
		runs.Add(1)
		return "table for " + req.Experiment, nil
	})
	for i := 0; i < 3; i++ {
		if resp, data := postSweep(t, ts, `{"experiment":"fig5","level":65}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("try %d: %d %s, want 400", i, resp.StatusCode, data)
		}
	}
	if runs.Load() != 0 {
		t.Fatalf("an invalid body ran %d times", runs.Load())
	}

	var first []byte
	for _, body := range []string{
		`{"experiment":"fig5"}`,
		`{"experiment":"fig5","scale":1,"level":8,"fidelity":"exact"}`,
		`{"experiment":"fig5"}`,
		`{"experiment":"fig5"` + strings.Repeat(" ", smallBodyBytes) + `}`,
	} {
		resp, data := postSweep(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%.40s: %d %s", body, resp.StatusCode, data)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(data, first) || resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%.40s: X-Cache %q, bytes %s, want a hit with %s", body, resp.Header.Get("X-Cache"), data, first)
		}
	}
	if runs.Load() != 1 || s.cache.Stats().Entries != 1 {
		t.Fatalf("%d runs, %d cache entries; want 1 and 1", runs.Load(), s.cache.Stats().Entries)
	}
}

// TestResultResponsesDeclareLength: every result response the daemon
// writes (a miss, a coalesced wait, a memory hit and a disk hit) goes
// out with a Content-Length equal to its body, not chunked. The body is
// over net/http's 2 KiB buffer, past which a handler that sets no
// length has its response chunked.
func TestResultResponsesDeclareLength(t *testing.T) {
	output := strings.Repeat("x", 2500)
	var once sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	s, err := New(Options{Workers: 2, CacheEntries: 1, Store: openStore(t, t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.runSweep = func(req SweepRequest) (string, error) {
		if req.Experiment == "fig2" {
			once.Do(func() { close(started) })
			<-release
		}
		return output, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	check := func(what string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK || len(body) <= 2048 {
			t.Fatalf("%s: %d, %d bytes", what, resp.StatusCode, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v, for a body of %d bytes",
				what, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}

	// One leader computes fig2 while three followers wait on its flight.
	type answer struct {
		resp *http.Response
		body []byte
		err  error
	}
	const requests = 4
	answers := make(chan answer, requests)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"experiment":"fig2"}`))
		if err != nil {
			answers <- answer{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		answers <- answer{resp, body, err}
	}
	go post()
	<-started
	for i := 1; i < requests; i++ {
		go post()
	}
	for s.metrics.inFlight.Load() < requests {
		time.Sleep(time.Millisecond) // until every request is in its handler
	}
	close(release)
	seen := map[string]bool{}
	for i := 0; i < requests; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatal(a.err)
		}
		source := a.resp.Header.Get("X-Cache")
		seen[source] = true
		check(source, a.resp, a.body)
	}
	if !seen["miss"] || !seen["coalesced"] {
		t.Fatalf("outcomes %v, want a miss and a coalesced wait", seen)
	}

	resp, body := postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp.Header.Get("X-Cache-Tier") != "memory" {
		t.Fatalf("repeat served by tier %q, want memory", resp.Header.Get("X-Cache-Tier"))
	}
	check("memory hit", resp, body)
	// A second key displaces fig2 from the one-entry LRU; fig2 then
	// comes from the store.
	resp, body = postSweep(t, ts, `{"experiment":"fig3"}`)
	check("fig3 miss", resp, body)
	resp, body = postSweep(t, ts, `{"experiment":"fig2"}`)
	if resp.Header.Get("X-Cache-Tier") != "disk" {
		t.Fatalf("fig2 after eviction served by tier %q, want disk", resp.Header.Get("X-Cache-Tier"))
	}
	check("disk hit", resp, body)
}

// TestRequestBodyBound: a request body is read whole up to 1 MiB,
// whether its length is declared or it arrives chunked, and refused
// with 400 past that.
func TestRequestBodyBound(t *testing.T) {
	_, ts := newTestServer(t, Options{}, func(SweepRequest) (string, error) { return "ok", nil })
	padded := func(n int) string {
		const head, tail = `{"experiment":"fig5"`, `}`
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		name    string
		body    string
		chunked bool
		want    int
	}{
		{"declared, at the bound", padded(maxBodyBytes), false, http.StatusOK},
		{"declared, past the bound", padded(maxBodyBytes + 1), false, http.StatusBadRequest},
		{"chunked", padded(300), true, http.StatusOK},
		{"chunked, past the bound", padded(maxBodyBytes + 1), true, http.StatusBadRequest},
	} {
		var body io.Reader = strings.NewReader(tc.body)
		if tc.chunked {
			body = io.MultiReader(body) // hides the length: sent chunked
		}
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: %d %.80s, want %d", tc.name, resp.StatusCode, data, tc.want)
		}
	}
}

// trickleBody is a request body that yields a few bytes and then fails,
// as a client that declared more and hung up would. It records the
// largest read it was asked for: the size of the buffer read into.
type trickleBody struct {
	data    []byte
	maxRead int
}

func (b *trickleBody) Read(p []byte) (int, error) {
	b.maxRead = max(b.maxRead, len(p))
	if len(b.data) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (b *trickleBody) Close() error { return nil }

// TestDeclaredLengthNotPreallocated: a request that declares a 1 MiB
// body and sends a few bytes is refused with 400, and the handler reads
// it into a buffer that grew with what arrived, never one of the
// declared size.
func TestDeclaredLengthNotPreallocated(t *testing.T) {
	s, _ := newTestServer(t, Options{}, func(SweepRequest) (string, error) { return "ok", nil })
	h := s.Handler()
	for _, path := range []string{"/v1/sweep", "/v1/sim"} {
		body := &trickleBody{data: []byte(`{"experiment":"fig5"`)}
		req := httptest.NewRequest(http.MethodPost, path, nil)
		req.Body = body
		req.ContentLength = maxBodyBytes
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", path, rec.Code, rec.Body)
		}
		if body.maxRead > smallBodyBytes {
			t.Fatalf("%s: a read of %d bytes for a body that sent %d", path, body.maxRead, len(`{"experiment":"fig5"`))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= maxBodyBytes/2 {
			t.Fatalf("%s: the handler allocated %d bytes for a body that sent 20", path, n)
		}
	}
}
