package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/service"
)

// exactPaperLikeDigests maps service.CodeVersion to the sha256 of the
// exact-fidelity reports TestExactPaperLikeGolden pins under that
// version, with the same bump rule as designSpaceDigest.
var exactPaperLikeDigests = map[string]string{
	"gaascache-sim/3": "03d957b6339a2eb1cd8690915c2e4716e3607ee2011bf7c83f8e13f1f073500b",
}

// TestExactPaperLikeGolden pins, byte for byte, the exact reports of
// every experiment that simulates the paper-calibrated workload
// (workload.PaperLike): Fig. 5's crossover, Fig. 6, Table 2, the
// Section 5 cycle-time study, Fig. 10 and the summary. Level 8 gives
// each run eight processes; the 60k cap keeps the whole set near a
// second.
func TestExactPaperLikeGolden(t *testing.T) {
	h := sha256.New()
	for _, id := range []string{"fig5", "fig6", "table2", "sec5", "fig10", "summary"} {
		out, err := experiments.RunFidelity(id, experiments.Options{Scale: 1, Level: 8, MaxInstructions: 60_000, Fidelity: "exact"})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(h, "%s\n%s\n", id, out)
	}
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := exactPaperLikeDigests[service.CodeVersion]
	if !ok {
		t.Fatalf("no exact paper-like digest for %s (got %s): CodeVersion bumped without recording a digest", service.CodeVersion, got)
	}
	if got != want {
		t.Fatalf("exact paper-like digest = %s, want %s: served bytes changed without a CodeVersion bump", got, want)
	}
}
