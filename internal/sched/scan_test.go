package sched

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// scanCounter is a *core.System that counts StepScan and StepBatch
// calls, so a test can tell which branch the scheduler took.
type scanCounter struct {
	*core.System
	scans, batches int
}

func (s *scanCounter) StepScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	s.scans++
	return s.System.StepScan(pid, c, max)
}

func (s *scanCounter) StepBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	s.batches++
	return s.System.StepBatch(pid, evs)
}

// batchOnlyStream hides a cursor behind trace.BatchStream alone, the
// shape of perfbench's timing wrapper, so the scheduler takes its
// measure-mode Batch plus StepBatch branch.
type batchOnlyStream struct{ c *trace.Cursor }

func (b batchOnlyStream) Next(ev *trace.Event) bool   { return b.c.Next(ev) }
func (b batchOnlyStream) Batch(max int) []trace.Event { return b.c.Batch(max) }
func (b batchOnlyStream) Skip(n int)                  { b.c.Skip(n) }

// batchOnlyProcs is workloadProcs with every cursor behind
// batchOnlyStream.
func batchOnlyProcs() []Process {
	procs := workloadProcs()
	for i := range procs {
		procs[i].Stream = batchOnlyStream{procs[i].Stream.(*trace.Cursor)}
	}
	return procs
}

// TestScanPathMatchesBatchPath requires Run and a measure-only Runner
// over cursors, which step through StepScan, to give the same Result
// and system statistics as Run over the same cursors behind a
// BatchStream-only wrapper, which steps through Batch and StepBatch.
// Self-checks are on, and the slice lengths include one long enough
// that a scan runs past the 4096-event cap a batch has. Every process
// of the workload fetches from one code region, so back-to-back quanta
// of different PIDs fetch the same virtual lines.
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
			wantRes, err := Run(batchSys, batchOnlyProcs(), scfg)
			if err != nil {
				t.Fatalf("Run over batch-only streams: %v", err)
			}
			if batchSys.scans != 0 || batchSys.batches == 0 {
				t.Fatalf("Run over batch-only streams: %d StepScan and %d StepBatch calls", batchSys.scans, batchSys.batches)
			}
			check := func(what string, sys *scanCounter, res Result) {
				t.Helper()
				if sys.scans == 0 || sys.batches != 0 {
					t.Errorf("policy %v cfg %+v: %s made %d StepScan and %d StepBatch calls",
						ccfg.WritePolicy, scfg, what, sys.scans, sys.batches)
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
			res, err := Run(scanSys, workloadProcs(), scfg)
			if err != nil {
				t.Fatalf("Run over cursors: %v", err)
			}
			check("Run", scanSys, res)
			for _, budget := range []uint64{1 << 62, 537, 1} {
				sys := newSys()
				r, err := NewRunner(sys, workloadProcs(), scfg)
				if err != nil {
					t.Fatalf("NewRunner: %v", err)
				}
				drainRunner(t, r, budget, ModeMeasure)
				check("Runner", sys, r.Result())
			}
		}
	}
}
