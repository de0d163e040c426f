package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// TestSweepFidelityCachesIndependently pins the screening contract: the
// normalized fidelity is part of the cache key, so screening and exact
// results for the same experiment coexist instead of aliasing.
func TestSweepFidelityCachesIndependently(t *testing.T) {
	var runs atomic.Int32
	_, ts := newTestServer(t, Options{}, func(req SweepRequest) (string, error) {
		runs.Add(1)
		return "fidelity=" + req.Fidelity, nil
	})

	respExact, bodyExact := postSweep(t, ts, `{"experiment":"fig6"}`)
	if respExact.StatusCode != http.StatusOK {
		t.Fatalf("exact request: %d %s", respExact.StatusCode, bodyExact)
	}
	respScr, bodyScr := postSweep(t, ts, `{"experiment":"fig6","fidelity":"screening"}`)
	if respScr.StatusCode != http.StatusOK {
		t.Fatalf("screening request: %d %s", respScr.StatusCode, bodyScr)
	}
	if respExact.Header.Get("X-Cache-Key") == respScr.Header.Get("X-Cache-Key") {
		t.Fatal("exact and screening requests share a cache key")
	}
	if runs.Load() != 2 {
		t.Fatalf("%d simulations ran, want 2 (one per fidelity)", runs.Load())
	}

	var sr SweepResponse
	if err := json.Unmarshal(bodyScr, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Fidelity != FidelityScreening || sr.Output != "fidelity=screening" {
		t.Fatalf("screening response %+v", sr)
	}

	// The explicit default spelling of exact must hit the implicit one's
	// cache entry (normalization before hashing).
	respDefault, _ := postSweep(t, ts, `{"experiment":"fig6","fidelity":"exact"}`)
	if got := respDefault.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("explicit exact X-Cache %q, want hit", got)
	}
	if runs.Load() != 2 {
		t.Fatalf("%d simulations ran after explicit-exact repeat, want 2", runs.Load())
	}
}

func TestSweepFidelityValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{}, func(req SweepRequest) (string, error) {
		return "ok", nil
	})
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown fidelity", `{"experiment":"fig6","fidelity":"quick"}`, "must be"},
		{"no screening mode", `{"experiment":"fig2","fidelity":"screening"}`, "no screening mode"},
		{"no sampled mode", `{"experiment":"fig3","fidelity":"sampled"}`, "no sampled mode"},
		// Fewer than two sampling periods measure fewer than two
		// intervals, so no confidence interval.
		{"sampled cap under two periods", `{"experiment":"fig2","fidelity":"sampled","max_instructions":200000}`, "at least 1440000"},
	}
	for _, c := range cases {
		resp, body := postSweep(t, ts, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), c.wantErr) {
			t.Errorf("%s: body %s missing %q", c.name, body, c.wantErr)
		}
	}
}

// TestSweepScreeningEndToEnd runs a real screening sweep through the
// default runner: the one-pass analyzer behind /v1/sweep.
func TestSweepScreeningEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	resp, body := postSweep(t, ts,
		`{"experiment":"fastsweep","fidelity":"screening","level":3,"max_instructions":100000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("screening sweep: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Fidelity != FidelityScreening {
		t.Errorf("fidelity %q, want screening", sr.Fidelity)
	}
	if !strings.Contains(sr.Output, "one-pass screening") {
		t.Errorf("screening output missing header:\n%s", sr.Output)
	}
}

// TestSweepSampledEndToEnd runs a real sampled sweep through the
// default runner: the interval-sampling engine behind /v1/sweep at its
// validated default regime.
func TestSweepSampledEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	resp, body := postSweep(t, ts, `{"experiment":"fig2","fidelity":"sampled","level":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled sweep: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Fidelity != FidelitySampled {
		t.Errorf("fidelity %q, want sampled", sr.Fidelity)
	}
	for _, want := range []string{"CPI (95% CI)", "±", "intervals"} {
		if !strings.Contains(sr.Output, want) {
			t.Errorf("sampled output missing %q:\n%s", want, sr.Output)
		}
	}
}

func TestExperimentsListMarksFidelities(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The deprecated boolean was removed after its one-release grace
	// period; the per-id fidelities array is the only spelling now.
	if strings.Contains(string(raw), `"screening":`) {
		t.Fatalf("deprecated screening boolean still emitted:\n%s", raw)
	}
	var list []struct {
		ID         string   `json:"id"`
		Fidelities []string `json:"fidelities"`
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	byID := map[string][]string{}
	for _, e := range list {
		byID[e.ID] = e.Fidelities
	}
	has := func(id, f string) bool {
		for _, g := range byID[id] {
			if g == f {
				return true
			}
		}
		return false
	}
	for _, id := range []string{"fig2", "fig6", "fastsweep", "table1"} {
		if !has(id, FidelityExact) {
			t.Errorf("%s missing exact fidelity: %v", id, byID[id])
		}
	}
	if !has("fastsweep", FidelityScreening) || !has("fig6", FidelityScreening) {
		t.Error("fastsweep/fig6 not marked screening-capable")
	}
	if !has("fig2", FidelitySampled) || !has("fig6", FidelitySampled) {
		t.Error("fig2/fig6 not marked sampled-capable")
	}
	if has("fig2", FidelityScreening) {
		t.Error("fig2 wrongly marked screening-capable")
	}
	if has("fig3", FidelitySampled) {
		t.Error("fig3 wrongly marked sampled-capable")
	}
}
