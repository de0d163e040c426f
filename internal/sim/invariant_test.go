package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// runPolicy simulates one synthetic trace under a write policy and
// returns total cycles.
func runPolicy(t *testing.T, p core.WritePolicy, seed uint64) uint64 {
	t.Helper()
	cfg := core.Base()
	cfg.WritePolicy = p
	if p != core.WriteBack {
		cfg.WBEntries, cfg.WBEntryWords = 8, 1
	}
	procs := []sched.Process{{
		Name: "synth",
		Stream: trace.Pack(synth.New(synth.Config{
			Instructions: 150_000,
			Seed:         seed,
			LoadFrac:     0.2,
			StoreFrac:    0.1,
			SeqFrac:      0.3,
			HotFrac:      0.4,
			StoreBurst:   3,
		})).NewCursor(),
	}}
	res := mustRun(t, cfg, procs, sched.Config{Level: 1})
	return res.Stats.Cycles
}

// TestWriteOnlyDominatesWMI checks the structural invariant behind the
// paper's Section 6 recommendation: the write-only policy can only turn
// write-miss-invalidate's misses into hits (writes to a write-only line
// hit; reads behave identically), so on any trace it must not be slower.
func TestWriteOnlyDominatesWMI(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		wo := runPolicy(t, core.WriteOnly, seed)
		wmi := runPolicy(t, core.WriteMissInvalidate, seed)
		if wo > wmi {
			t.Errorf("seed %d: write-only (%d cycles) slower than WMI (%d)", seed, wo, wmi)
		}
	}
}

// TestSubblockDominatesWMI: subblock placement strictly refines WMI the
// same way (word writes validate their word; reads of validated words
// hit), so it must not be slower either.
func TestSubblockDominatesWMI(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		sb := runPolicy(t, core.Subblock, seed)
		wmi := runPolicy(t, core.WriteMissInvalidate, seed)
		if sb > wmi {
			t.Errorf("seed %d: subblock (%d cycles) slower than WMI (%d)", seed, sb, wmi)
		}
	}
}

// TestSlowerL2NeverHelps: raising the L2 access time can only add
// cycles, whatever the policy.
func TestSlowerL2NeverHelps(t *testing.T) {
	for _, p := range []core.WritePolicy{core.WriteBack, core.WriteOnly} {
		var prev uint64
		for _, access := range []int{2, 6, 10} {
			cfg := core.Base()
			cfg.WritePolicy = p
			if p != core.WriteBack {
				cfg.WBEntries, cfg.WBEntryWords = 8, 1
			}
			cfg.L2U.Timing = core.TimingForAccess(access)
			procs := []sched.Process{{
				Name:   "synth",
				Stream: trace.Pack(synth.New(synth.Config{Instructions: 100_000, Seed: 42})).NewCursor(),
			}}
			cycles := mustRun(t, cfg, procs, sched.Config{Level: 1}).Stats.Cycles
			if cycles < prev {
				t.Errorf("%v: access %d took %d cycles, less than a faster L2 (%d)",
					p, access, cycles, prev)
			}
			prev = cycles
		}
	}
}

// TestLargerL2NeverHurtsFullyWarm: with a fully associative view this
// would be a theorem; for direct-mapped caches Belady anomalies are
// possible in principle, but a doubling of a direct-mapped L2 preserves
// index bits (the smaller index is a suffix of the larger), so every
// hit in the small cache remains a hit in the big one. Check it.
func TestLargerL2NeverHurts(t *testing.T) {
	var prev uint64
	for i, sizeKW := range []int{64, 128, 256} {
		cfg := core.Base()
		cfg.L2U.Geom.SizeWords = sizeKW * 1024
		procs := []sched.Process{{
			Name:   "synth",
			Stream: trace.Pack(synth.New(synth.Config{Instructions: 120_000, Seed: 77, DataBytes: 1 << 20})).NewCursor(),
		}}
		cycles := mustRun(t, cfg, procs, sched.Config{Level: 1}).Stats.Cycles
		if i > 0 && cycles > prev {
			t.Errorf("L2 %dKW took %d cycles, more than the half-size cache (%d)", sizeKW, cycles, prev)
		}
		prev = cycles
	}
}
