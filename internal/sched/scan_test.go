package sched

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// scanCounter is a *core.System that counts StepScan calls, so a test
// can tell the scheduler took the scan path.
type scanCounter struct {
	*core.System
	scans int
}

func (s *scanCounter) StepScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	s.scans++
	return s.System.StepScan(pid, c, max)
}

// TestScanPathMatchesBatchPath requires Run and a measure-only Runner
// over cursor streams, which step through StepScan, to give the same
// Result and system statistics as Run over the same events as
// MemTraces, which step through Batch and StepBatch. Self-checks are on,
// and the slice lengths include one long enough that a scan runs past
// the 4096-event cap a batch has. Every process of the workload fetches
// from one code region, so back-to-back quanta of different PIDs fetch
// the same virtual lines.
func TestScanPathMatchesBatchPath(t *testing.T) {
	base := core.Base()
	base.SelfCheck = 1000
	opt := core.Optimized()
	opt.L1I.Ways = 2
	opt.SelfCheck = 1000
	scfgs := []Config{
		{TimeSlice: 2000},
		{TimeSlice: 2000, NoSyscallSwitch: true},
		{TimeSlice: 700, MaxInstructions: 9000},
		{Level: 2, TimeSlice: 3000},
		{TimeSlice: 1 << 20, NoSyscallSwitch: true},
	}
	for _, ccfg := range []core.Config{base, opt} {
		for _, scfg := range scfgs {
			newSys := func() *scanCounter {
				sys, err := core.NewSystem(ccfg)
				if err != nil {
					t.Fatalf("NewSystem: %v", err)
				}
				return &scanCounter{System: sys}
			}
			batchSys := newSys()
			wantRes, err := Run(batchSys, workloadProcs(false), scfg)
			if err != nil {
				t.Fatalf("Run over MemTraces: %v", err)
			}
			if batchSys.scans != 0 {
				t.Fatalf("Run over MemTraces called StepScan %d times", batchSys.scans)
			}
			check := func(what string, sys *scanCounter, res Result) {
				t.Helper()
				if sys.scans == 0 {
					t.Errorf("policy %v cfg %+v: %s never called StepScan", ccfg.WritePolicy, scfg, what)
				}
				if !reflect.DeepEqual(wantRes, res) {
					t.Errorf("policy %v cfg %+v: %s result diverged\nbatch: %+v\nscan:  %+v",
						ccfg.WritePolicy, scfg, what, wantRes, res)
				}
				if want, got := batchSys.Stats(), sys.Stats(); want != got {
					t.Errorf("policy %v cfg %+v: %s stats diverged\nbatch: %+v\nscan:  %+v",
						ccfg.WritePolicy, scfg, what, want, got)
				}
			}
			scanSys := newSys()
			res, err := Run(scanSys, workloadProcs(true), scfg)
			if err != nil {
				t.Fatalf("Run over cursors: %v", err)
			}
			check("Run", scanSys, res)
			for _, budget := range []uint64{1 << 62, 537, 1} {
				sys := newSys()
				r, err := NewRunner(sys, workloadProcs(true), scfg)
				if err != nil {
					t.Fatalf("NewRunner: %v", err)
				}
				drainRunner(t, r, budget, ModeMeasure)
				check("Runner", sys, r.Result())
			}
		}
	}
}
