package sched

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/synth"
	"repro/internal/trace"
)

// batchWorkload builds per-process traces with stalls, loads, stores,
// and periodic syscalls, long enough to cross several time slices.
func batchWorkload(n int) []*trace.MemTrace {
	names := 3
	out := make([]*trace.MemTrace, names)
	for p := 0; p < names; p++ {
		var mt trace.MemTrace
		for i := 0; i < n+p*101; i++ {
			ev := trace.Event{PC: uint32(0x40000 + 4*(i%977)), Stall: uint8((i + p) % 4)}
			switch i % 7 {
			case 2:
				ev.Kind = trace.Load
				ev.Size = 4
				ev.Data = uint32(0x100000 + 8*((i*13+p)%4096))
			case 5:
				ev.Kind = trace.Store
				ev.Size = 4
				ev.Data = uint32(0x200000 + 8*((i*29+p)%4096))
			}
			if i%811 == 810 {
				ev.Syscall = true
			}
			mt.Append(ev)
		}
		out[p] = &mt
	}
	return out
}

// workloadProcs returns the batch workload as processes whose streams
// are packed-trace cursors.
func workloadProcs() []Process {
	traces := batchWorkload(5000)
	procs := make([]Process, len(traces))
	for i, mt := range traces {
		procs[i] = Process{Name: []string{"alpha", "beta", "gamma"}[i], Stream: trace.Pack(mt).NewCursor()}
	}
	return procs
}

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

// TestRunnerMeasureMatchesRun pins the Runner's resumability: driven
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
		wantRes, err := Run(wantSys, workloadProcs(), scfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, budget := range budgets {
			sys := newRunnerSystem(t)
			r, err := NewRunner(sys, workloadProcs(), scfg)
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
	wantRes, err := Run(wantSys, workloadProcs(), scfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sys := newRunnerSystem(t)
	r, err := NewRunner(sys, workloadProcs(), scfg)
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
		r, err := NewRunner(sys, workloadProcs(), Config{TimeSlice: 900})
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

// warmProcs packs four synthetic processes whose working sets overflow
// the Base L1s, with a syscall every 10,000 instructions.
func warmProcs() []Process { return synthProcs(trace.Pack) }

// synthProcs returns warmProcs' processes over the recordings that rec
// makes of their streams.
func synthProcs(rec func(trace.Stream) *trace.Recorded) []Process {
	procs := make([]Process, 4)
	for i := range procs {
		procs[i] = Process{Name: string(rune('a' + i)), Stream: rec(synth.New(synth.Config{
			Instructions: 40_000,
			LoadFrac:     0.20,
			StoreFrac:    0.10,
			CodeBytes:    64 * 1024,
			DataBytes:    512 * 1024,
			SeqFrac:      0.5,
			HotFrac:      0.3,
			SyscallEvery: 10_000,
			Seed:         0x5eed + uint64(i),
		})).NewCursor()}
	}
	return procs
}

// warmPolicies returns Base under each write policy.
func warmPolicies() []core.Config {
	var cfgs []core.Config
	for _, p := range []core.WritePolicy{core.WriteBack, core.WriteMissInvalidate, core.WriteOnly, core.Subblock} {
		cfg := core.Base()
		cfg.WritePolicy = p
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// drainWarm drains a Runner over warmProcs in warm mode at the given
// slice and nominal CPI, returning its result and the system.
func drainWarm(t *testing.T, cfg core.Config, scfg Config, cpi float64, mode Mode) (Result, *core.System) {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	r, err := NewRunner(sys, warmProcs(), scfg)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	r.SetNominalCPI(cpi)
	drainRunner(t, r, 137, mode)
	return r.Result(), sys
}

// TestRunnerWarmMatchesSkip pins warm mode's schedule: warming charges
// the virtual clock per instruction exactly as skipping does, so a
// Runner drained in warm mode makes the same switches, at the same
// instructions, as one drained in skip mode at the same nominal CPI and
// budgets. A short slice makes both kinds of switch happen, and the
// target's clock and Stats must not move.
func TestRunnerWarmMatchesSkip(t *testing.T) {
	scfg := Config{Level: 3, TimeSlice: 3000}
	for _, cfg := range warmPolicies() {
		warm, sys := drainWarm(t, cfg, scfg, 2.3, ModeWarm)
		skip, _ := drainWarm(t, cfg, scfg, 2.3, ModeSkip)
		if !reflect.DeepEqual(warm, skip) {
			t.Errorf("%v: warm schedule diverged from skip\nwarm: %+v\nskip: %+v", cfg.WritePolicy, warm, skip)
		}
		if warm.SyscallSwitches == 0 || warm.SliceSwitches == 0 {
			t.Errorf("%v: want both switch kinds, got syscall=%d slice=%d", cfg.WritePolicy, warm.SyscallSwitches, warm.SliceSwitches)
		}
		if sys.Now() != 0 || sys.Stats().Instructions != 0 {
			t.Errorf("%v: warm mode moved the clock to %d and counted %d instructions", cfg.WritePolicy, sys.Now(), sys.Stats().Instructions)
		}
	}
}

// TestRunnerWarmMatchesExactFingerprint pins warm mode's state: with
// slices too long to expire, switches are syscall-driven only, so a
// multiprogrammed warm drain interleaves the processes exactly as Run
// does, and must leave the cache state the exact run leaves once its
// write buffer drains.
func TestRunnerWarmMatchesExactFingerprint(t *testing.T) {
	scfg := Config{Level: 3, TimeSlice: 1 << 40}
	for _, cfg := range warmPolicies() {
		exactSys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		exact, err := Run(exactSys, warmProcs(), scfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		exactSys.DrainWriteBuffer()
		warm, warmSys := drainWarm(t, cfg, scfg, 1, ModeWarm)
		warm.CyclesPerSwitch = exact.CyclesPerSwitch // the clocks differ by design
		if !reflect.DeepEqual(warm, exact) {
			t.Errorf("%v: warm schedule diverged from exact\nwarm:  %+v\nexact: %+v", cfg.WritePolicy, warm, exact)
		}
		if e, w := exactSys.CacheFingerprint(), warmSys.CacheFingerprint(); e != w {
			t.Errorf("%v: cache state diverged: exact %#x, warm %#x", cfg.WritePolicy, e, w)
		}
	}
}

// TestHugeTimeSlices pins time slices near the top of the clock: a
// deadline that would wrap saturates, and the chunk cap is clamped
// before any conversion, so Run and a Runner in every mode consume the
// whole workload with exactly the schedule of a 2^40 slice — its
// syscall switches and no slice switch.
func TestHugeTimeSlices(t *testing.T) {
	var total uint64
	for _, mt := range batchWorkload(5000) {
		total += uint64(mt.Len())
	}
	runAt := func(slice uint64) Result {
		res, err := Run(newRunnerSystem(t), workloadProcs(), Config{TimeSlice: slice})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	drainAt := func(slice uint64, mode Mode) Result {
		r, err := NewRunner(newRunnerSystem(t), workloadProcs(), Config{TimeSlice: slice})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.SetNominalCPI(2.5)
		drainRunner(t, r, 1<<62, mode)
		return r.Result()
	}
	want := runAt(1 << 40)
	if want.Instructions != total || want.SliceSwitches != 0 || want.SyscallSwitches == 0 {
		t.Fatalf("2^40 slice: %+v; want all %d instructions, syscall switches only", want, total)
	}
	huge := []uint64{1 << 55, 1 << 56, 1 << 62, 1 << 63, math.MaxUint64}
	for _, slice := range huge {
		if got := runAt(slice); !reflect.DeepEqual(got, want) {
			t.Errorf("Run at slice %d: %+v, want %+v", slice, got, want)
		}
	}
	for _, mode := range []Mode{ModeMeasure, ModeWarm, ModeSkip} {
		want := drainAt(1<<40, mode)
		if want.Instructions != total || want.SliceSwitches != 0 {
			t.Fatalf("%v mode at a 2^40 slice: %+v; want all %d instructions, no slice switch", mode, want, total)
		}
		for _, slice := range huge {
			if got := drainAt(slice, mode); !reflect.DeepEqual(got, want) {
				t.Errorf("%v mode at slice %d: %+v, want %+v", mode, slice, got, want)
			}
		}
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
		r, err := NewRunner(sys, workloadProcs(), Config{TimeSlice: 2000, NoSyscallSwitch: true})
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

// TestRunnerRejectsNonBatchStream pins the constructor contract: a
// stream must be a cursor, or a BatchStream for a target that can step
// decoded events, which then runs in measure mode only.
func TestRunnerRejectsNonBatchStream(t *testing.T) {
	sys := newRunnerSystem(t)
	if _, err := NewRunner(sys, []Process{{Name: "raw", Stream: serialStream{}}}, Config{}); err == nil {
		t.Fatalf("NewRunner accepted a plain stream")
	}
	if _, err := NewRunner(scanOnlyTarget{}, batchOnlyProcs(), Config{}); err == nil {
		t.Fatalf("NewRunner accepted a batch-only stream for a target without StepBatch")
	}
	r, err := NewRunner(sys, batchOnlyProcs(), Config{})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := r.RunFor(10, ModeSkip); err == nil {
		t.Fatalf("skip mode ran a batch-only stream")
	}
}

// serialStream implements only trace.Stream.
type serialStream struct{}

func (serialStream) Next(*trace.Event) bool { return false }

// TestRunnerWarmRequiresWarmTarget pins the warm-mode runtime check.
func TestRunnerWarmRequiresWarmTarget(t *testing.T) {
	r, err := NewRunner(scanOnlyTarget{}, workloadProcs(), Config{})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := r.RunFor(10, ModeWarm); err == nil {
		t.Fatalf("warm mode on a target without WarmScan did not error")
	}
	if _, err := r.RunFor(10, ModeSkip); err != nil {
		t.Fatalf("skip mode must not require WarmScan: %v", err)
	}
}

// scanOnlyTarget implements Target and nothing more.
type scanOnlyTarget struct{}

func (scanOnlyTarget) Now() uint64 { return 0 }
func (scanOnlyTarget) StepScan(_ mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	n, syscall := c.SkipScan(max)
	return n, syscall, nil
}
