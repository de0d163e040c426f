package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/service"
)

// firstN takes the first n requests of a fresh source.
func firstN(t *testing.T, wl string, seed int64, n int) []request {
	t.Helper()
	src, err := newSource(wl, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]request, n)
	for i := range out {
		out[i] = src.next()
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	n := map[string]int{designSweep: 200, tierSweep: 200, hotFigures: 5000}
	for _, wl := range workloadNames {
		a, b := firstN(t, wl, 7, n[wl]), firstN(t, wl, 7, n[wl])
		other := firstN(t, wl, 8, n[wl])
		differs := false
		for i := range a {
			if a[i].Index != i || a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Pair != b[i].Pair {
				t.Fatalf("%s: request %d differs between two lists from seed 7", wl, i)
			}
			differs = differs || !bytes.Equal(a[i].Body, other[i].Body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same list", wl)
		}
	}
}

// keyOf recomputes a request's cache key from the bytes sent.
func keyOf(t *testing.T, r request) string {
	t.Helper()
	var key string
	var err error
	if r.Path == "/v1/sim" {
		var req service.SimRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			t.Fatal(err)
		}
		key, err = service.SimKey(req)
	} else {
		var req service.SweepRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			t.Fatal(err)
		}
		key, err = service.SweepKey(req)
	}
	if err != nil {
		t.Fatalf("request %d is invalid: %v", r.Index, err)
	}
	return key
}

func TestSweepWorkloadsRepeatNoKey(t *testing.T) {
	for _, wl := range []string{designSweep, tierSweep} {
		seen := map[string]int{}
		for _, r := range firstN(t, wl, 1, 1000) {
			k := keyOf(t, r)
			if j, dup := seen[k]; dup {
				t.Fatalf("%s: requests %d and %d share cache key %s", wl, j, r.Index, k)
			}
			seen[k] = r.Index
		}
	}
}

func TestHotFiguresKeys(t *testing.T) {
	src := newHotSource(1)
	keys := map[string]bool{}
	for _, r := range src.keys {
		keys[keyOf(t, r)] = true
	}
	if len(keys) != hotSims+hotSweeps || len(keys) <= workers*cacheEntries {
		t.Fatalf("key set holds %d distinct keys; want %d, above the workers' %d LRU entries",
			len(keys), hotSims+hotSweeps, workers*cacheEntries)
	}
	pairs := 0
	for i := 0; i < 20000; i++ {
		r := src.next()
		k := keyOf(t, r)
		if r.Pair {
			pairs++
			if keys[k] {
				t.Fatalf("pair request %d reuses a key", r.Index)
			}
			keys[k] = true
		} else if !keys[k] {
			t.Fatalf("request %d is outside the key set", r.Index)
		}
	}
	if pairs == 0 || pairs > 100 {
		t.Errorf("%d coalesced pairs in 20000 requests; want a small share near %g", pairs, hotPairShare)
	}
}

func TestZipfHeadShare(t *testing.T) {
	src := newHotSource(3)
	n := len(src.keys)
	var h float64
	for k := 1; k <= n; k++ {
		h += math.Pow(float64(k), -hotSkew)
	}
	counts := map[string]int{}
	draws := 0
	for draws < 200_000 {
		r := src.next()
		if r.Pair {
			continue
		}
		counts[r.Key]++
		draws++
	}
	head := float64(counts[src.keys[0].Key]) / float64(draws)
	if want := 1 / h; math.Abs(head-want) > 0.01 {
		t.Errorf("head share %.4f, want %.4f for s=%g over %d keys", head, want, hotSkew, n)
	}
	second := float64(counts[src.keys[1].Key]) / float64(draws)
	if got, want := second/head, math.Pow(2, -hotSkew); math.Abs(got-want) > 0.02 {
		t.Errorf("rank-2/rank-1 share %.4f, want 2^-s = %.4f", got, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, c := range []struct {
		q    float64
		n    int
		ok   bool
		want float64
	}{
		{0.50, 19, false, 0}, {0.50, 20, true, 10},
		{0.90, 99, false, 0}, {0.90, 100, true, 90},
		{0.99, 999, false, 0}, {0.99, 1000, true, 990},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g, %v", 100*c.q, c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSpecRecordsEveryDigest(t *testing.T) {
	sp, err := loadSpec("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		if d := sp.Digests[service.CodeVersion][wl]; len(d) != len("sha256:")+64 {
			t.Errorf("spec.json records %q for %s under %s; want a sha256 digest", d, wl, service.CodeVersion)
		}
	}
}

func TestDigestStable(t *testing.T) {
	bodies := [][]byte{[]byte("ab"), []byte("c")}
	// sha256 of u64be(0) u64be(2) "ab" u64be(1) u64be(1) "c".
	const want = "sha256:e14480785037c2af0d2c49425583ca4d76ed4cac197089e5fb33c418b27cd804"
	got := digest(bodies)
	if got != digest([][]byte{[]byte("ab"), []byte("c")}) {
		t.Fatal("digest is not a pure function of its input")
	}
	if got != want {
		t.Errorf("digest = %s, want the pinned %s", got, want)
	}
	for _, other := range [][][]byte{{[]byte("a"), []byte("bc")}, {[]byte("c"), []byte("ab")}, {[]byte("ab")}} {
		if digest(other) == got {
			t.Errorf("digest does not separate %q from %q", other, bodies)
		}
	}
}
