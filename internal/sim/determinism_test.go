package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// snapshot renders everything a run emits — the full Stats struct, the
// formatted breakdown, and the per-process report — as one byte string.
func snapshot(res sim.Result) string {
	return fmt.Sprintf("%+v\n%s%s",
		res.Stats,
		res.Stats.Breakdown(),
		report.FormatPerProcess(res.Sched.PerProcess))
}

// run executes a small multiprogramming simulation on the paper-like
// synthetic workload with runtime self-checks enabled.
func run(t *testing.T, cfg core.Config) sim.Result {
	t.Helper()
	cfg.SelfCheck = 10_000
	res, err := sim.Run(cfg, workload.ReplayProcesses(workload.RecordPaperLike(4, 60_000)), sched.Config{
		Level:     4,
		TimeSlice: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunsAreByteIdentical is the determinism regression gate backing
// the cachelint determinism analyzer: two runs of the same
// configuration must produce bit-for-bit identical statistics and
// report output. A diff here means a nondeterminism source (wall
// clock, process-seeded rand, map iteration) crept into the simulator
// or its reporting.
func TestRunsAreByteIdentical(t *testing.T) {
	for _, cfg := range []core.Config{core.Base(), core.Optimized()} {
		first := snapshot(run(t, cfg))
		second := snapshot(run(t, cfg))
		if first != second {
			t.Errorf("two runs of %v diverged:\n--- first\n%s\n--- second\n%s",
				cfg.WritePolicy, first, second)
		}
	}
}

// TestFreshSystemsDoNotShareState re-runs through a fresh Record cache
// path (the recorded kernel suite) and checks the replayed workload is
// reproducible too, covering the trace memoization and Clone path.
func TestFreshSystemsDoNotShareState(t *testing.T) {
	cfg := core.Base()
	cfg.SelfCheck = 10_000
	scfg := sched.Config{Level: 4, TimeSlice: 20_000, MaxInstructions: 150_000}
	var snaps [2]string
	for i := range snaps {
		res, err := sim.Run(cfg, workload.ReplayProcesses(workload.Record(1)), scfg)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = snapshot(res)
	}
	if snaps[0] != snaps[1] {
		t.Errorf("replayed runs diverged:\n--- first\n%s\n--- second\n%s", snaps[0], snaps[1])
	}
}
