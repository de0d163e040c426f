package fabric

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// checkFramed fails unless resp declared a Content-Length equal to its
// body's length and was not sent chunked.
func checkFramed(t *testing.T, what string, resp *http.Response, body []byte) {
	t.Helper()
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v, for a body of %d bytes",
			what, resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// TestCoordinatorRepeatedBadBodyRefused: an invalid body is refused
// with 400 every time it is sent, reaches no worker, and is never
// filed in the key memo.
func TestCoordinatorRepeatedBadBodyRefused(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	w := newFakeWorker(t, "w1")
	register(t, ts.URL, w)
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweep", `{"experiment":"fig99"}`},
		{"/v1/sweep", `{"experiment":"fig5","fidelity":"bogus"}`},
		{"/v1/sweep", `{"experiment":"fig5","screening":true}`},
		{"/v1/sim", `{"config":{"preset":"base"},"scale":65}`},
		{"/v1/sim", `{"config":{"preset":"base"}`},
	} {
		for i := 0; i < 3; i++ {
			if resp, data := postJSON(t, ts.URL+tc.path, tc.body); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s, try %d: %d %s, want 400", tc.path, tc.body, i, resp.StatusCode, data)
			}
		}
	}
	if n := w.hits.Load(); n != 0 {
		t.Fatalf("invalid bodies reached a worker %d times", n)
	}
	if n := c.keys.Len(); n != 0 {
		t.Fatalf("the key memo filed %d invalid bodies", n)
	}
}

// TestCoordinatorSpellingsShareOneEntry: two spellings of one request
// are two memo entries for one content address, so they share one tier
// entry and one worker leg, and every answer has the same bytes.
func TestCoordinatorSpellingsShareOneEntry(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	w := newFakeWorker(t, "w1")
	register(t, ts.URL, w)
	spellings := []string{
		`{"config":{"preset":"optimized"},"max_instructions":1000}`,
		`{"max_instructions":1000,"level":8,"scale":1,"time_slice":500000,"config":{"preset":"optimized"}}`,
	}
	var first []byte
	for round := 0; round < 2; round++ {
		for _, body := range spellings {
			resp, data := postJSON(t, ts.URL+"/v1/sim", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", body, resp.StatusCode, data)
			}
			if first == nil {
				first = data
			} else if !bytes.Equal(data, first) {
				t.Fatalf("%s answered other bytes:\n%s\nvs\n%s", body, data, first)
			}
		}
	}
	if st := c.results.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("tier stats %+v, want one entry, one miss, three hits", st)
	}
	if n := w.hits.Load(); n != 1 {
		t.Fatalf("the worker saw %d legs, want 1", n)
	}
	if n := c.keys.Len(); n != 2 {
		t.Fatalf("the key memo holds %d bodies, want one per spelling", n)
	}
}

// TestCoordinatorPaddedBodyNotMemoized: a valid body larger than the
// memo's 4 KiB bound is keyed and served, from the tier on a repeat,
// but never filed.
func TestCoordinatorPaddedBodyNotMemoized(t *testing.T) {
	c, ts := newTestCoordinator(t, testCoordOptions())
	register(t, ts.URL, newFakeWorker(t, "w1"))
	body := `{"experiment":"fig5"` + strings.Repeat(" ", 4<<10) + `}`
	for i, tier := range []string{"", "coordinator"} {
		resp, data := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache-Tier") != tier {
			t.Fatalf("request %d: %d, tier %q, want 200 from tier %q: %s", i, resp.StatusCode, resp.Header.Get("X-Cache-Tier"), tier, data)
		}
	}
	if n := c.keys.Len(); n != 0 {
		t.Fatalf("the key memo filed a %d-byte body", len(body))
	}
}

// TestCoordinatorResultsDeclareLength: a relayed result and a tier hit
// both go out with a Content-Length equal to the body, not chunked. The
// body is over net/http's 2 KiB buffer, past which a handler that sets
// no length has its response chunked.
func TestCoordinatorResultsDeclareLength(t *testing.T) {
	_, ts := newTestCoordinator(t, testCoordOptions())
	register(t, ts.URL, newFakeWorker(t, "w1"))
	// The fake worker echoes the request, so the padding makes a large
	// result.
	body := `{"experiment":"fig5"` + strings.Repeat(" ", 2500) + `}`
	for _, tier := range []string{"", "coordinator"} {
		resp, data := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache-Tier") != tier || len(data) <= 2048 {
			t.Fatalf("tier %q: %d, tier %q, %d bytes", tier, resp.StatusCode, resp.Header.Get("X-Cache-Tier"), len(data))
		}
		checkFramed(t, "tier "+tier, resp, data)
	}
}
