package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

func synthProcs(n int, instrs uint64) []sched.Process {
	procs := make([]sched.Process, n)
	for i := range procs {
		procs[i] = sched.Process{
			Name: "synth",
			Stream: trace.Pack(synth.New(synth.Config{
				Instructions: instrs,
				Seed:         uint64(i + 1),
				StallProb:    0.2,
				SyscallEvery: 50_000,
			})).NewCursor(),
		}
	}
	return procs
}

func TestRunBaseConfig(t *testing.T) {
	res, err := Run(core.Base(), synthProcs(4, 100_000), sched.Config{Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instructions != 400_000 {
		t.Fatalf("instructions = %d, want 400000", res.Stats.Instructions)
	}
	// The synthetic workload's random component misses hard in a 16 KB
	// L1, so the CPI is high; it just has to be finite and above 1.
	if cpi := res.CPI(); cpi <= 1 || cpi > 50 {
		t.Fatalf("CPI = %g, implausible", cpi)
	}
	if res.Sched.Instructions != res.Stats.Instructions {
		t.Fatal("scheduler and system disagree on instruction count")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	bad := core.Base()
	bad.L1D.SizeWords = 3
	if _, err := Run(bad, synthProcs(1, 10), sched.Config{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

// mustRun is Run for known-good configurations under test.
func mustRun(t *testing.T, cfg core.Config, procs []sched.Process, scfg sched.Config) Result {
	t.Helper()
	res, err := Run(cfg, procs, scfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		return mustRun(t, core.Base(), synthProcs(2, 50_000), sched.Config{Level: 2})
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestFullPipelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload in -short mode")
	}
	rec := workload.Record(1)
	cfg := core.Base()
	cfg.SelfCheck = 100_000 // exercise the runtime self-checks on the real workload
	res := mustRun(t, cfg, workload.ReplayProcesses(rec),
		sched.Config{MaxInstructions: 2_000_000})
	if res.Stats.Instructions != 2_000_000 {
		t.Fatalf("instructions = %d", res.Stats.Instructions)
	}
	st := res.Stats
	if st.L1IMissRatio() <= 0 || st.L1DMissRatio() <= 0 || st.L2MissRatio() <= 0 {
		t.Fatalf("degenerate miss ratios: %+v", st)
	}
	if st.CPI() < 1.2 || st.CPI() > 6 {
		t.Fatalf("base-config CPI = %.3f, implausible", st.CPI())
	}
	t.Logf("base config on 2M instructions: CPI %.3f\n%s", st.CPI(), st.Breakdown())
}
