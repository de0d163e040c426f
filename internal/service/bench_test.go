package service

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// BenchmarkServeHit measures one cache hit through the daemon's HTTP
// surface on loopback (httptest): the client's request, decode,
// validation and keying, the tier lookup and the response write.
// memory repeats one key the in-memory LRU holds; disk alternates two
// keys over a one-entry LRU, so every request misses memory and reads
// the store (promoting its entry over the other). Bodies are about
// 2 KB, the size of a served /v1/sim report. allocs/op counts client
// and server alike, since both run in this process.
func BenchmarkServeHit(b *testing.B) {
	output := strings.Repeat("x", 1800)
	cases := []struct {
		tier    string
		entries int
		keys    int
	}{
		{"memory", 0, 1},
		{"disk", 1, 2},
	}
	for _, tc := range cases {
		b.Run(tc.tier, func(b *testing.B) {
			o := Options{CacheEntries: tc.entries}
			if tc.tier == "disk" {
				o.Store = openStore(b, b.TempDir())
			}
			s, ts := newTestServer(b, o, func(SweepRequest) (string, error) { return output, nil })
			b.Cleanup(func() { s.Close() })
			hc := ts.Client()
			post := func(body string) *http.Response {
				resp, err := hc.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				return resp
			}
			bodies := make([]string, tc.keys)
			for i := range bodies {
				bodies[i] = fmt.Sprintf(`{"experiment":"fig5","level":%d}`, i+1)
				post(bodies[i]) // computes and stores the key
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := post(bodies[i%len(bodies)]); resp.Header.Get("X-Cache-Tier") != tc.tier {
					b.Fatalf("request %d served by tier %q, want %s", i, resp.Header.Get("X-Cache-Tier"), tc.tier)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/req")
		})
	}
}

// BenchmarkKeyBody measures keying one /v1/sim body the size of a
// design-sweep request. cold alternates two bodies over a one-entry
// memo, so every call takes the strict path (decode, normalize,
// validate, json.Marshal, SHA-256) and files its body, evicting the
// other; memo repeats one body, which one map lookup answers.
func BenchmarkKeyBody(b *testing.B) {
	bodies := [][]byte{
		[]byte(`{"config":{"preset":"base","policy":"writeonly","l2_kw":128,"l2_access":4,"split":true,"lps":"dirtybit"},"max_instructions":200000}`),
		[]byte(`{"config":{"preset":"base","policy":"writeonly","l2_kw":128,"l2_access":4,"split":true,"lps":"dirtybit"},"max_instructions":200001}`),
	}
	for _, tc := range []struct {
		name string
		keys int
	}{{"cold", 2}, {"memo", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			m := NewKeyMemo(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.KeyBody(KindSim, bodies[i%tc.keys]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
