package sched

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// serialOnly hides StepBatch so sched.Run takes the per-event path on a
// real system.
type serialOnly struct{ s *core.System }

func (t serialOnly) Step(pid mmu.PID, ev *trace.Event) error { return t.s.Step(pid, ev) }
func (t serialOnly) Now() uint64                             { return t.s.Now() }

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
// are packed-trace cursors, or the same events as MemTraces.
func workloadProcs(packed bool) []Process {
	traces := batchWorkload(5000)
	procs := make([]Process, len(traces))
	for i, mt := range traces {
		var s trace.Stream = mt.Clone()
		if packed {
			s = trace.Pack(mt.Clone()).NewCursor()
		}
		procs[i] = Process{Name: []string{"alpha", "beta", "gamma"}[i], Stream: s}
	}
	return procs
}

func runWorkload(t *testing.T, batched bool, packed bool, scfg Config) (Result, core.Stats) {
	t.Helper()
	procs := workloadProcs(packed)
	sys, err := core.NewSystem(core.Base())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var target Target = sys
	if !batched {
		target = serialOnly{sys}
	}
	res, err := Run(target, procs, scfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, sys.Stats()
}

// TestBatchedRunMatchesSerial drives the same multiprogrammed workload
// through the serial per-event path and the batched fast path (over
// both MemTrace batches and packed-trace cursors) and requires
// identical scheduling results and system statistics.
func TestBatchedRunMatchesSerial(t *testing.T) {
	cfgs := []Config{
		{TimeSlice: 2000},
		{TimeSlice: 2000, NoSyscallSwitch: true},
		{TimeSlice: 700, MaxInstructions: 9000},
		{Level: 2, TimeSlice: 3000},
	}
	for _, scfg := range cfgs {
		serialRes, serialStats := runWorkload(t, false, false, scfg)
		for _, packed := range []bool{false, true} {
			gotRes, gotStats := runWorkload(t, true, packed, scfg)
			if !reflect.DeepEqual(serialRes, gotRes) {
				t.Errorf("cfg %+v packed=%v: scheduling result diverged\nserial:  %+v\nbatched: %+v",
					scfg, packed, serialRes, gotRes)
			}
			if serialStats != gotStats {
				t.Errorf("cfg %+v packed=%v: system stats diverged\nserial:  %+v\nbatched: %+v",
					scfg, packed, serialStats, gotStats)
			}
		}
	}
}
