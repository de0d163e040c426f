package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/experiments"
)

// servedSurfaceDigests maps CodeVersion to the sha256 digests of
// TestServedSurfaceGolden under that version: every sweep request with
// its response body, and the /v1/experiments body. A change that only
// restructures or speeds up the serving path must reproduce the current
// version's digests exactly; one that moves served bytes on purpose
// bumps CodeVersion and records the new digests under the new key.
var servedSurfaceDigests = map[string]struct{ sweeps, experiments string }{
	"gaascache-sim/3": {
		sweeps:      "a0299bb6f6f10810b1bae0d5a6e0b0e4a1adeb8868214e9ded6ccfb320a848fc",
		experiments: "1b967beb6fe9f3ca54d9220333e2b9b4b01709a4f3297d4bc992936d2eccee6a",
	},
}

// TestServedSurfaceGolden POSTs every (experiment, fidelity) pair the
// experiment table serves through a real Server, in paper order with
// each id's fidelities in experiments.Fidelities order, and pins the
// digest of every request and response body. The four engine goldens
// pin chosen grids and ids; this one pins the text /v1/sweep returns
// for each id at each tier. Sampled requests run 1.5M instructions, so
// each point measures two intervals instead of none.
func TestServedSurfaceGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	h := sha256.New()
	for _, e := range experiments.Registry() {
		for _, f := range e.Fidelities() {
			max := 200_000
			if f == FidelitySampled {
				max = 1_500_000
			}
			req := fmt.Sprintf(`{"experiment":%q,"max_instructions":%d,"fidelity":%q}`, e.ID, max, f)
			resp, body := postSweep(t, ts, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", req, resp.StatusCode, body)
			}
			fmt.Fprintf(h, "%s\n%s", req, body)
		}
	}
	sweeps := hex.EncodeToString(h.Sum(nil))

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	list, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(list)
	listed := hex.EncodeToString(sum[:])

	want, ok := servedSurfaceDigests[CodeVersion]
	if !ok {
		t.Fatalf("no served-surface digests for %s (got sweeps %s, experiments %s): CodeVersion bumped without recording them",
			CodeVersion, sweeps, listed)
	}
	if sweeps != want.sweeps {
		t.Errorf("served sweeps digest = %s, want %s: served bytes changed without a CodeVersion bump", sweeps, want.sweeps)
	}
	if listed != want.experiments {
		t.Errorf("/v1/experiments digest = %s, want %s:\n%s", listed, want.experiments, list)
	}
}
