package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mmu"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// referenceRun is the scheduling model of package sched written out
// event by event over core.System.Step, independent of sched's code:
// round robin over at most Level live processes; a switch after every
// executed syscall (unless NoSyscallSwitch) and once a quantum has run
// its TimeSlice, whose deadline saturates at the top of the clock; a
// finished process leaves its slot to the next one in rotation while
// the next waiting process joins at the end; and a stop after
// MaxInstructions in total. PIDs count up from 1 in start order.
func referenceRun(sys *core.System, procs []sched.Process, cfg sched.Config) (sched.Result, error) {
	level, slice := cfg.Level, cfg.TimeSlice
	if level <= 0 {
		level = 8
	}
	if slice == 0 {
		slice = sched.DefaultTimeSlice
	}
	type proc struct {
		name string
		pid  mmu.PID
		src  trace.Stream
	}
	res := sched.Result{PerProcess: map[string]uint64{}}
	var live []proc
	next := 0
	admit := func() {
		if next < len(procs) {
			live = append(live, proc{procs[next].Name, mmu.PID(next + 1), procs[next].Stream})
			next++
		}
	}
	for len(live) < level && next < len(procs) {
		admit()
	}
	start, cur := sys.Now(), 0
	var ev trace.Event
quanta:
	for len(live) > 0 {
		cur %= len(live)
		p := live[cur]
		end := sys.Now() + slice
		if end < slice {
			end = math.MaxUint64
		}
		for {
			if !p.src.Next(&ev) {
				res.Completed = append(res.Completed, p.name)
				live = append(live[:cur], live[cur+1:]...)
				admit()
				continue quanta
			}
			err := sys.Step(p.pid, &ev)
			res.Instructions++
			res.PerProcess[p.name]++
			switch {
			case err != nil:
				return res, err
			case cfg.MaxInstructions > 0 && res.Instructions >= cfg.MaxInstructions:
				break quanta
			case ev.Syscall && !cfg.NoSyscallSwitch:
				res.SyscallSwitches++
			case sys.Now() >= end:
				res.SliceSwitches++
			default:
				continue
			}
			res.Switches++
			cur++
			continue quanta
		}
	}
	if res.Switches > 0 {
		res.CyclesPerSwitch = float64(sys.Now()-start) / float64(res.Switches)
	}
	return res, nil
}

// batchOnly hides a cursor behind trace.BatchStream alone, the shape of
// perfbench's timing wrapper, so sched.Run takes its measure-mode Batch
// plus StepBatch branch.
type batchOnly struct{ c *trace.Cursor }

func (b batchOnly) Next(ev *trace.Event) bool   { return b.c.Next(ev) }
func (b batchOnly) Batch(max int) []trace.Event { return b.c.Batch(max) }
func (b batchOnly) Skip(n int)                  { b.c.Skip(n) }

// schedCase is one FuzzRunMatchesReference input.
type schedCase struct {
	level, procs            uint8  // 1-16 processes live, 2-6 in the workload
	seed                    uint64 // synth seed of the first process
	syscallEvery            uint16 // syscall spacing (0 = none), varied per process
	events                  uint16 // events per process, above 1000
	slice                   uint64 // time slice before the shift, at least 100 after it
	sliceShift              uint8
	maxInstructions         uint32 // 0 = no cap
	noSyscallSwitch         bool
	optimized               bool
	policy, lps             uint8 // indexes into the spec names below
	split, dirty, twoWayL1I bool  // split L2, dirty buffer, 2-way L1-I
}

func (c schedCase) add(f *testing.F) {
	f.Add(c.level, c.procs, c.seed, c.syscallEvery, c.events, c.slice, c.sliceShift, c.maxInstructions,
		c.noSyscallSwitch, c.optimized, c.policy, c.lps, c.split, c.dirty, c.twoWayL1I)
}

// FuzzRunMatchesReference draws a multiprogrammed synthetic workload, a
// schedule and a configuration of the paper's design space with
// self-checks on, and requires sched.Run over packed cursors, the same
// cursors behind a BatchStream-only wrapper, and a Runner drained in
// measure mode at budgets 1, 537 and 1<<62 all to equal referenceRun:
// the same sched.Result, Stats, clock and cache state.
//
// The seeds carry the schedules and configurations the scheduler's own
// differential tests use: the 2,000-, 700- and 3,000-cycle slices, with
// and without syscall switches, a 9,000-instruction cap and level 2, on
// Base and on the optimized design with a 2-way L1-I, plus a 2^20 slice
// a scan runs long in, and the top of the clock.
func FuzzRunMatchesReference(f *testing.F) {
	for _, c := range []schedCase{
		{level: 8, procs: 3, syscallEvery: 811, events: 4000, slice: 2000},
		{level: 8, procs: 3, syscallEvery: 811, events: 4000, slice: 2000, noSyscallSwitch: true},
		{level: 8, procs: 3, syscallEvery: 811, events: 4000, slice: 700, maxInstructions: 9000},
		{level: 2, procs: 3, syscallEvery: 811, events: 4000, slice: 3000},
		{level: 8, procs: 3, syscallEvery: 811, events: 4000, slice: 1 << 20, noSyscallSwitch: true},
		{level: 8, procs: 3, syscallEvery: 811, events: 4000, slice: 2000, optimized: true, twoWayL1I: true},
		{level: 8, procs: 3, syscallEvery: 811, events: 4000, slice: 700, maxInstructions: 9000, optimized: true, twoWayL1I: true},
		{level: 2, procs: 3, syscallEvery: 811, events: 4000, slice: 3000, optimized: true, twoWayL1I: true},
		{level: 8, procs: 3, syscallEvery: 811, events: 4000, slice: 1 << 20, noSyscallSwitch: true, optimized: true, twoWayL1I: true},
		{level: 3, procs: 6, seed: 7, syscallEvery: 900, events: 3000, slice: 1500, policy: 2, lps: 2, split: true, dirty: true},
		{level: 16, procs: 5, seed: 9, syscallEvery: 400, events: 2000, slice: math.MaxUint64, policy: 3, maxInstructions: 7000},
	} {
		c.add(f)
	}
	f.Fuzz(func(t *testing.T, level, nprocs uint8, seed uint64, syscallEvery, events uint16, slice uint64, sliceShift uint8,
		maxInstructions uint32, noSyscallSwitch, optimized bool, policy, lps uint8, split, dirty, twoWayL1I bool) {
		spec := experiments.ConfigSpec{
			Policy:      []string{"writeback", "wmi", "writeonly", "subblock"}[policy%4],
			LPS:         []string{"", "none", "assoc", "dirtybit"}[lps%4],
			Split:       split,
			DirtyBuffer: dirty,
		}
		if optimized {
			spec.Preset = "optimized"
		}
		cfg, err := experiments.BuildConfig(spec)
		if err != nil {
			return // outside the design space
		}
		if twoWayL1I {
			cfg.L1I.Ways = 2
		}
		cfg.SelfCheck = 2000
		if err := cfg.Validate(); err != nil {
			return
		}
		recs := make([]*trace.Recorded, 2+nprocs%5)
		for i := range recs {
			every := uint64(syscallEvery)
			if every > 0 {
				every += 97 * uint64(i)
			}
			recs[i] = trace.Pack(synth.New(synth.Config{
				Instructions: 1000 + uint64(events%5000) + 101*uint64(i),
				LoadFrac:     0.2,
				StoreFrac:    0.1,
				CodeBytes:    16 * 1024,
				DataBytes:    256 * 1024,
				SeqFrac:      0.4,
				HotFrac:      0.4,
				StoreBurst:   3,
				StallProb:    0.2,
				SyscallEvery: every,
				Seed:         seed + uint64(i),
			}))
		}
		scfg := sched.Config{
			Level:           1 + int(level%16),
			TimeSlice:       max(100, slice>>(sliceShift%64)),
			NoSyscallSwitch: noSyscallSwitch,
			MaxInstructions: uint64(maxInstructions % 40_000),
		}
		procs := func(wrap bool) []sched.Process {
			ps := make([]sched.Process, len(recs))
			for i, r := range recs {
				ps[i] = sched.Process{Name: fmt.Sprintf("p%d", i), Stream: r.NewCursor()}
				if wrap {
					ps[i].Stream = batchOnly{r.NewCursor()}
				}
			}
			return ps
		}
		newSys := func() *core.System {
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			return sys
		}
		refSys := newSys()
		want, err := referenceRun(refSys, procs(false), scfg)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		check := func(what string, sys *core.System, got sched.Result) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %+v, %+v: schedule\n got  %+v\n want %+v", what, spec, scfg, got, want)
			}
			if sys.Stats() != refSys.Stats() || sys.Now() != refSys.Now() {
				t.Fatalf("%s, %+v, %+v: stats at cycle %d\n got  %+v\n want %+v at cycle %d",
					what, spec, scfg, sys.Now(), sys.Stats(), refSys.Stats(), refSys.Now())
			}
			if sys.CacheFingerprint() != refSys.CacheFingerprint() {
				t.Fatalf("%s, %+v, %+v: cache state diverged", what, spec, scfg)
			}
		}
		for _, wrap := range []bool{false, true} {
			sys := newSys()
			got, err := sched.Run(sys, procs(wrap), scfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			check(fmt.Sprintf("Run (batch-only streams %v)", wrap), sys, got)
		}
		for _, budget := range []uint64{1, 537, 1 << 62} {
			sys := newSys()
			r, err := sched.NewRunner(sys, procs(false), scfg)
			if err != nil {
				t.Fatalf("NewRunner: %v", err)
			}
			for !r.Done() {
				if _, err := r.RunFor(budget, sched.ModeMeasure); err != nil {
					t.Fatalf("RunFor: %v", err)
				}
			}
			check(fmt.Sprintf("Runner at budget %d", budget), sys, r.Result())
		}
	})
}
