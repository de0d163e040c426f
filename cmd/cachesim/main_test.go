package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPackCapIsExact pins the -max cap: members packed only up to the
// run's instruction cap give the same run as the full recordings,
// including at level 1, where the first member runs the whole cap and
// its cut end coincides with the run's stop.
func TestPackCapIsExact(t *testing.T) {
	const perProc, max = 50_000, 30_000
	for _, level := range []int{1, 4} {
		scfg := sched.Config{Level: level, TimeSlice: 20_000, MaxInstructions: max}
		rs, err := workload.Pack(workload.PaperLike(4, perProc), 1, max)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Trace.Len() != max {
				t.Fatalf("member %s packed %d events, want the cap %d", r.Name, r.Trace.Len(), max)
			}
		}
		got, err := sim.Run(core.Base(), workload.ReplayProcesses(rs), scfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(core.Base(), workload.ReplayProcesses(workload.RecordPaperLike(4, perProc)), scfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("level %d: capped members ran\n%+v\nwant\n%+v", level, got, want)
		}
	}
}
