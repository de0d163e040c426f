package sched

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// runnerProcs builds packed-cursor processes over the shared batch
// workload, the same shape Run's equivalence tests use.
func runnerProcs() []Process { return workloadProcs(true) }

func newRunnerSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Base())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// drainRunner advances r in fixed-budget steps of the given mode until
// the workload is exhausted, returning total instructions consumed.
func drainRunner(t *testing.T, r *Runner, budget uint64, mode Mode) uint64 {
	t.Helper()
	var total uint64
	for !r.Done() {
		n, err := r.RunFor(budget, mode)
		if err != nil {
			t.Fatalf("RunFor(%d, %v): %v", budget, mode, err)
		}
		total += n
		if n == 0 && !r.Done() {
			t.Fatalf("RunFor made no progress but runner is not done")
		}
	}
	return total
}

// TestRunnerMeasureMatchesRun pins the Runner's core contract: driven
// entirely in measure mode, it is Run — identical scheduling results
// and identical system statistics, whether advanced in one huge budget
// or resumed across many odd-sized budgets (so quantum state survives a
// mid-slice pause exactly).
func TestRunnerMeasureMatchesRun(t *testing.T) {
	cfgs := []Config{
		{TimeSlice: 2000},
		{TimeSlice: 2000, NoSyscallSwitch: true},
		{TimeSlice: 700, MaxInstructions: 9000},
		{Level: 2, TimeSlice: 3000},
	}
	budgets := []uint64{1 << 62, 537, 4096, 1}
	for _, scfg := range cfgs {
		wantSys := newRunnerSystem(t)
		wantRes, err := Run(wantSys, runnerProcs(), scfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, budget := range budgets {
			sys := newRunnerSystem(t)
			r, err := NewRunner(sys, runnerProcs(), scfg)
			if err != nil {
				t.Fatalf("NewRunner: %v", err)
			}
			drainRunner(t, r, budget, ModeMeasure)
			gotRes := r.Result()
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Errorf("cfg %+v budget %d: scheduling result diverged\nrun:    %+v\nrunner: %+v",
					scfg, budget, wantRes, gotRes)
			}
			if want, got := wantSys.Stats(), sys.Stats(); want != got {
				t.Errorf("cfg %+v budget %d: system stats diverged\nrun:    %+v\nrunner: %+v",
					scfg, budget, want, got)
			}
		}
	}
}

// TestRunnerSkipHonorsSyscalls pins the fast-forward contract the
// sampled engine relies on: skipping the whole workload visits the
// same syscall-switch points and per-process instruction counts as a
// full measured replay (with slices too long to expire), while never
// touching the simulated system.
func TestRunnerSkipHonorsSyscalls(t *testing.T) {
	scfg := Config{TimeSlice: 1 << 40}
	wantSys := newRunnerSystem(t)
	wantRes, err := Run(wantSys, runnerProcs(), scfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sys := newRunnerSystem(t)
	r, err := NewRunner(sys, runnerProcs(), scfg)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	drainRunner(t, r, 777, ModeSkip)
	got := r.Result()
	if got.Instructions != wantRes.Instructions {
		t.Errorf("skip consumed %d instructions, measured run %d", got.Instructions, wantRes.Instructions)
	}
	if got.SyscallSwitches != wantRes.SyscallSwitches {
		t.Errorf("skip made %d syscall switches, measured run %d", got.SyscallSwitches, wantRes.SyscallSwitches)
	}
	if !reflect.DeepEqual(got.PerProcess, wantRes.PerProcess) {
		t.Errorf("per-process counts diverged\nmeasured: %v\nskip:     %v", wantRes.PerProcess, got.PerProcess)
	}
	if !reflect.DeepEqual(got.Completed, wantRes.Completed) {
		t.Errorf("completion order diverged: %v vs %v", wantRes.Completed, got.Completed)
	}
	if n := sys.Stats().Instructions; n != 0 {
		t.Errorf("skip mode executed %d instructions on the target; must not touch it", n)
	}
}

// TestRunnerMixedModesDeterministic alternates skip → warm → measure
// phases across quantum edges and requires: full consumption of the
// workload, and byte-identical statistics on a rerun (the determinism
// the sampled engine's cache-key soundness inherits).
func TestRunnerMixedModesDeterministic(t *testing.T) {
	run := func() (Result, core.Stats) {
		sys := newRunnerSystem(t)
		r, err := NewRunner(sys, runnerProcs(), Config{TimeSlice: 900})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.SetNominalCPI(2.5)
		modes := []Mode{ModeSkip, ModeWarm, ModeMeasure}
		budgets := []uint64{1100, 400, 300}
		for i := 0; !r.Done(); i++ {
			if _, err := r.RunFor(budgets[i%3], modes[i%3]); err != nil {
				t.Fatalf("RunFor: %v", err)
			}
		}
		return r.Result(), sys.Stats()
	}
	res1, stats1 := run()
	res2, stats2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("rerun scheduling result diverged:\n1: %+v\n2: %+v", res1, res2)
	}
	if stats1 != stats2 {
		t.Errorf("rerun system stats diverged:\n1: %+v\n2: %+v", stats1, stats2)
	}
	var want uint64
	for _, mt := range batchWorkload(5000) {
		want += uint64(mt.Len())
	}
	if res1.Instructions != want {
		t.Errorf("mixed-mode run consumed %d instructions, want %d", res1.Instructions, want)
	}
	if len(res1.Completed) != 3 {
		t.Errorf("completed %v, want all three processes", res1.Completed)
	}
	if res1.SliceSwitches == 0 {
		t.Errorf("expected slice-expiry switches under the nominal clock, got none")
	}
}

// batchOnlyStream hides a cursor's concrete type, so the runner's warm
// mode falls back to the decoded Batch+WarmBatch path instead of the
// raw-word WarmScan fast path.
type batchOnlyStream struct{ c *trace.Cursor }

func (b batchOnlyStream) Next(ev *trace.Event) bool   { return b.c.Next(ev) }
func (b batchOnlyStream) Batch(max int) []trace.Event { return b.c.Batch(max) }
func (b batchOnlyStream) Skip(n int)                  { b.c.Skip(n) }

// TestRunnerWarmScanMatchesBatchPath pins the warm fast path end to
// end: driving the whole workload in warm mode through WarmScan must
// visit the same syscall switches and quantum edges, produce the same
// scheduling result, and leave bit-identical functional cache state as
// the decoded WarmBatch fallback. Odd budgets land RunFor boundaries
// mid-slice; the short time slice forces expiries under the nominal
// clock; the workload's periodic syscalls force early stops inside
// scan chunks.
func TestRunnerWarmScanMatchesBatchPath(t *testing.T) {
	run := func(hideCursor bool) (Result, uint64, core.Stats) {
		sys := newRunnerSystem(t)
		procs := runnerProcs()
		if hideCursor {
			for i := range procs {
				procs[i].Stream = batchOnlyStream{procs[i].Stream.(*trace.Cursor)}
			}
		}
		r, err := NewRunner(sys, procs, Config{TimeSlice: 900})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.SetNominalCPI(2.0)
		drainRunner(t, r, 137, ModeWarm)
		return r.Result(), sys.CacheFingerprint(), sys.Stats()
	}
	scanRes, scanFP, scanStats := run(false)
	batchRes, batchFP, batchStats := run(true)
	if !reflect.DeepEqual(scanRes, batchRes) {
		t.Errorf("scheduling result diverged\nscan:  %+v\nbatch: %+v", scanRes, batchRes)
	}
	if scanFP != batchFP {
		t.Errorf("cache state diverged: scan fingerprint %#x, batch %#x", scanFP, batchFP)
	}
	if scanStats != batchStats {
		t.Errorf("system stats diverged\nscan:  %+v\nbatch: %+v", scanStats, batchStats)
	}
	if scanStats.Instructions != 0 {
		t.Errorf("warm mode executed %d instructions on the target; must not touch Stats", scanStats.Instructions)
	}
	if scanRes.SyscallSwitches == 0 || scanRes.SliceSwitches == 0 {
		t.Errorf("want both switch kinds exercised, got syscall=%d slice=%d",
			scanRes.SyscallSwitches, scanRes.SliceSwitches)
	}
}

// TestRunnerNominalClockDrivesSlices pins the virtual clock: in pure
// skip mode nothing advances the target's cycle counter, so time-slice
// expiry must come from the nominal CPI charge alone — and a higher
// nominal CPI must expire slices after proportionally fewer
// instructions (more switches over the same trace).
func TestRunnerNominalClockDrivesSlices(t *testing.T) {
	switches := func(cpi float64) uint64 {
		sys := newRunnerSystem(t)
		r, err := NewRunner(sys, runnerProcs(), Config{TimeSlice: 2000, NoSyscallSwitch: true})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.SetNominalCPI(cpi)
		drainRunner(t, r, 1<<20, ModeSkip)
		return r.Result().SliceSwitches
	}
	lo, hi := switches(1.0), switches(4.0)
	if lo == 0 {
		t.Fatalf("no slice switches at nominal CPI 1.0; the virtual clock is not advancing")
	}
	if hi <= lo*3 {
		t.Errorf("nominal CPI 4.0 produced %d slice switches vs %d at 1.0; want ~4x", hi, lo)
	}
}

// TestRunnerRejectsNonBatchStream pins the constructor contract.
func TestRunnerRejectsNonBatchStream(t *testing.T) {
	sys := newRunnerSystem(t)
	_, err := NewRunner(sys, []Process{{Name: "raw", Stream: serialStream{}}}, Config{})
	if err == nil {
		t.Fatalf("NewRunner accepted a non-batch stream")
	}
}

// serialStream implements only trace.Stream.
type serialStream struct{}

func (serialStream) Next(*trace.Event) bool { return false }

// TestRunnerWarmRequiresWarmTarget pins the warm-mode runtime check.
func TestRunnerWarmRequiresWarmTarget(t *testing.T) {
	r, err := NewRunner(plainBatchTarget{}, runnerProcs(), Config{})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := r.RunFor(10, ModeWarm); err == nil {
		t.Fatalf("warm mode on a target without WarmBatch did not error")
	}
	if _, err := r.RunFor(10, ModeSkip); err != nil {
		t.Fatalf("skip mode must not require WarmBatch: %v", err)
	}
}

// plainBatchTarget implements BatchTarget but not WarmTarget.
type plainBatchTarget struct{}

func (plainBatchTarget) Step(mmu.PID, *trace.Event) error { return nil }
func (plainBatchTarget) Now() uint64                      { return 0 }
func (plainBatchTarget) StepBatch(_ mmu.PID, evs []trace.Event) (int, error) {
	return len(evs), nil
}
