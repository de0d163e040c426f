package stackdist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/stackdist"
	"repro/internal/workload"
)

// screeningDigest maps service.CodeVersion to the sha256 of
// TestScreeningGolden's passes and reports under that version. A change
// that only speeds the analyzer up must reproduce the current version's
// digest exactly; one that moves screening numbers on purpose bumps
// service.CodeVersion and records the new digest under the new key.
var screeningDigest = map[string]string{
	"gaascache-sim/3": "1f67353fd959fa9dce0ae6d62cab5fab2d9d769abf06f9681ee8b2870e9966dd",
}

// goldenMax caps every pass of TestScreeningGolden, keeping the test
// to a few seconds while still crossing many context switches.
const goldenMax = 300_000

// TestScreeningGolden runs ScreeningGrid passes over the kernel suite
// and the paper-calibrated recording at several multiprogramming
// levels and time slices (slice-expiry-driven and syscall-only
// schedules), then every screening experiment's report, and pins the
// digest of all of it: raw histograms, per-process rows, filter
// counters, scheduler results and the formatted tables.
func TestScreeningGolden(t *testing.T) {
	recordings := []struct {
		name string
		rec  []workload.Recorded
	}{
		{"suite", workload.Record(1)},
		{"paper", workload.RecordPaperLike(8, 400_000)},
	}
	h := sha256.New()
	for _, r := range recordings {
		for _, level := range []int{1, 8, 16} {
			for _, slice := range []uint64{100_000, 500_000, 1 << 62} {
				scfg := sched.Config{Level: level, TimeSlice: slice, MaxInstructions: goldenMax}
				res, sres, err := stackdist.Analyze(experiments.ScreeningGrid(), workload.ReplayProcesses(r.rec), scfg)
				if err != nil {
					t.Fatalf("%s %+v: %v", r.name, scfg, err)
				}
				fmt.Fprintf(h, "%s %+v\n%+v\n%+v\n", r.name, scfg, *res, sres)
			}
		}
	}
	o := experiments.Options{MaxInstructions: goldenMax, Fidelity: experiments.FidelityScreening}
	for _, id := range experiments.ScreeningIDs() {
		out, err := experiments.RunFidelity(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(h, "%s\n%s\n", id, out)
	}
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := screeningDigest[service.CodeVersion]
	if !ok {
		t.Fatalf("no screening digest for %s (got %s): CodeVersion bumped without recording a digest", service.CodeVersion, got)
	}
	if got != want {
		t.Fatalf("screening digest = %s, want %s: served bytes changed without a CodeVersion bump", got, want)
	}
}
