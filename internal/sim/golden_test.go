package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// designSpaceDigest maps service.CodeVersion to the sha256 of every
// grid point's spec and formatted sim.Result in TestDesignSpaceGolden
// under that version. A change that only speeds the simulator up must
// reproduce the current version's digest exactly; one that moves
// simulated numbers on purpose bumps service.CodeVersion and records
// the new digest under the new key.
var designSpaceDigest = map[string]string{
	"gaascache-sim/3": "6f73cf75f45f9d63817f9540a1ad220f44cc3be9486ea80167686e7cf18b3d2d",
}

// TestDesignSpaceGolden runs the exact simulator over a small grid of
// the paper's design space — both presets x every write policy x every
// loads-pass-stores scheme BuildConfig accepts for it x split L2 x the
// L2 dirty buffer — with runtime self-checks on, and pins the digest of
// all results. The self-check's "ITLB hits + misses == L1-I accesses"
// law guards the TLB hit counting along the way; the short time slice
// makes the scheduler interleave address spaces often.
func TestDesignSpaceGolden(t *testing.T) {
	rec := workload.Record(1)
	scfg := sched.Config{Level: 4, TimeSlice: 25_000, MaxInstructions: 300_000}
	h := sha256.New()
	points := 0
	for _, preset := range []string{"base", "optimized"} {
		for _, policy := range []string{"writeback", "wmi", "writeonly", "subblock"} {
			for _, lps := range []string{"none", "assoc", "dirtybit"} {
				for _, split := range []bool{false, true} {
					for _, dirty := range []bool{false, true} {
						spec := experiments.ConfigSpec{Preset: preset, Policy: policy, LPS: lps, Split: split, DirtyBuffer: dirty}
						cfg, err := experiments.BuildConfig(spec)
						if err != nil {
							continue // a combination the paper's design space excludes
						}
						cfg.SelfCheck = 20_000
						res, err := sim.Run(cfg, workload.ReplayProcesses(rec), scfg)
						if err != nil {
							t.Fatalf("%+v: %v", spec, err)
						}
						fmt.Fprintf(h, "%+v\n%+v\n", spec, res)
						points++
					}
				}
			}
		}
	}
	if points != 64 {
		t.Fatalf("grid has %d valid points, want 64", points)
	}
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := designSpaceDigest[service.CodeVersion]
	if !ok {
		t.Fatalf("no design-space digest for %s (got %s): CodeVersion bumped without recording a digest", service.CodeVersion, got)
	}
	if got != want {
		t.Fatalf("design-space digest = %s, want %s: served bytes changed without a CodeVersion bump", got, want)
	}
}
