package service

import (
	"strings"
	"testing"
)

// TestWorkerIdentityHeader: a daemon started in worker mode stamps
// every result response with its fabric identity; a plain daemon emits
// no such header.
func TestWorkerIdentityHeader(t *testing.T) {
	_, worker := newTestServer(t, Options{WorkerID: "w-test"}, func(req SweepRequest) (string, error) {
		return "ok", nil
	})
	resp, _ := postSweep(t, worker, `{"experiment":"fig5"}`)
	if got := resp.Header.Get(WorkerHeader); got != "w-test" {
		t.Fatalf("%s = %q, want w-test", WorkerHeader, got)
	}
	// Hits carry it too: attribution must not depend on cache outcome.
	resp2, _ := postSweep(t, worker, `{"experiment":"fig5"}`)
	if resp2.Header.Get("X-Cache") != "hit" || resp2.Header.Get(WorkerHeader) != "w-test" {
		t.Fatalf("hit response lost attribution: X-Cache=%q %s=%q",
			resp2.Header.Get("X-Cache"), WorkerHeader, resp2.Header.Get(WorkerHeader))
	}

	_, plain := newTestServer(t, Options{}, func(req SweepRequest) (string, error) {
		return "ok", nil
	})
	resp3, _ := postSweep(t, plain, `{"experiment":"fig5"}`)
	if got := resp3.Header.Get(WorkerHeader); got != "" {
		t.Fatalf("non-worker daemon emitted %s=%q", WorkerHeader, got)
	}
}

// TestExportedKeysMatchServedKeys: SweepKey/SimKey — the fabric's
// routing addresses — are exactly the keys the server caches under, for
// every spelling of the same request.
func TestExportedKeysMatchServedKeys(t *testing.T) {
	_, ts := newTestServer(t, Options{}, func(req SweepRequest) (string, error) {
		return "ok", nil
	})

	key, err := SweepKey(SweepRequest{Experiment: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	// Normalization before hashing: the implicit and explicit spellings
	// of the defaults are one key.
	explicit, err := SweepKey(SweepRequest{Experiment: "fig5", Scale: 1, Level: 8, Fidelity: FidelityExact})
	if err != nil {
		t.Fatal(err)
	}
	if key != explicit {
		t.Fatalf("normalized spellings disagree: %s vs %s", key, explicit)
	}

	resp, _ := postSweep(t, ts, `{"experiment":"fig5"}`)
	if served := resp.Header.Get("X-Cache-Key"); served != key {
		t.Fatalf("SweepKey %s != served key %s", key, served)
	}

	if _, err := SweepKey(SweepRequest{Experiment: "no-such"}); err == nil {
		t.Fatal("invalid sweep request must not get a routing key")
	}
	if _, err := SweepKey(SweepRequest{Experiment: "fig2", Fidelity: FidelitySampled, MaxInstructions: 200_000}); err == nil {
		t.Fatal("a sampled request capped too short for a CI must not get a routing key")
	}
	if _, err := SimKey(SimRequest{Scale: MaxScale + 1}); err == nil {
		t.Fatal("invalid sim request must not get a routing key")
	}
	simKey, err := SimKey(SimRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if simKey == key || !strings.HasPrefix(simKey, "") || len(simKey) != 64 {
		t.Fatalf("sim key %q must be a distinct 64-hex address", simKey)
	}
}
