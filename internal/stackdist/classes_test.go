package stackdist_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/stackdist"
	"repro/internal/workload"
)

// passRecordings are the recordings the pass-equivalence tests replay:
// the kernel suite and the paper-calibrated workload.
func passRecordings() []struct {
	name string
	rec  []workload.Recorded
} {
	return []struct {
		name string
		rec  []workload.Recorded
	}{
		{"suite", workload.Record(1)},
		{"paper", workload.RecordPaperLike(8, 400_000)},
	}
}

// TestClassSubsetsMatchFullPass runs ScreeningGrid passes over every
// nonempty class set and requires each to equal the full pass where it
// overlaps: the selected classes, the filter counters, the instruction
// count, the nominal clock and the schedule. Unselected classes must
// come out as zero ClassResults.
func TestClassSubsetsMatchFullPass(t *testing.T) {
	const classes = 5
	for _, r := range passRecordings() {
		for _, slice := range []uint64{500_000, 1 << 62} {
			scfg := sched.Config{Level: 8, TimeSlice: slice, MaxInstructions: 150_000}
			pass := func(set stackdist.ClassSet) (*stackdist.Result, sched.Result) {
				t.Helper()
				cfg := experiments.ScreeningGrid()
				cfg.Classes = set
				res, sres, err := stackdist.Analyze(cfg, workload.ReplayProcesses(r.rec), scfg)
				if err != nil {
					t.Fatalf("%s %+v classes %05b: %v", r.name, scfg, set, err)
				}
				return res, sres
			}
			full, fullSched := pass(0)
			for set := stackdist.ClassSet(1); set < 1<<classes; set++ {
				got, gotSched := pass(set)
				where := fmt.Sprintf("%s slice %d classes %05b", r.name, slice, set)
				if got.Instructions != full.Instructions || got.NominalCycles != full.NominalCycles {
					t.Errorf("%s: instructions/cycles = %d/%d, full pass %d/%d", where,
						got.Instructions, got.NominalCycles, full.Instructions, full.NominalCycles)
				}
				if got.Filter != full.Filter {
					t.Errorf("%s: filter counts %+v, full pass %+v", where, got.Filter, full.Filter)
				}
				if !reflect.DeepEqual(gotSched, fullSched) {
					t.Errorf("%s: schedule %+v, full pass %+v", where, gotSched, fullSched)
				}
				for c := stackdist.Class(0); c < classes; c++ {
					want := stackdist.ClassResult{}
					if set.Has(c) {
						want = *full.Class(c)
					}
					if !reflect.DeepEqual(*got.Class(c), want) {
						t.Errorf("%s: class %v differs from the full pass (selected %v)", where, c, set.Has(c))
					}
				}
			}
		}
	}
}
