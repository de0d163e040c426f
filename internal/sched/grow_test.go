package sched

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// scanStops is a WarmTarget around *core.System that checks each scan
// stops only where its contract says: after a syscall, at its budget
// (events for WarmScan, cycles for StepScan), on a fault, or at the end
// of the cursor, never at a chunk end in between.
type scanStops struct {
	*core.System
	t *testing.T
}

func (s scanStops) StepScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	t0 := s.Now()
	n, syscall, err := s.System.StepScan(pid, c, max)
	if err == nil && !syscall && s.Now()-t0 < uint64(max) && len(c.Batch(1)) != 0 {
		s.t.Errorf("StepScan(%d) stopped after %d events and %d cycles with events left", max, n, s.Now()-t0)
	}
	return n, syscall, err
}

func (s scanStops) WarmScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	n, syscall, err := s.System.WarmScan(pid, c, max)
	if err == nil && !syscall && n < max && len(c.Batch(1)) != 0 {
		s.t.Errorf("WarmScan(%d) stopped after %d events with events left", max, n)
	}
	return n, syscall, err
}

// TestRunnersOverGrowingRecordingsMatchDrained drives Runners in every
// mode over recordings that grow as the run reads them and over the
// same streams drained up front. Each process spans about fifteen
// chunks, and syscalls come every 10,000 instructions, so with a long
// slice and a huge budget the scans run through chunk ends. In warm and
// skip modes the virtual clock carries a fraction of a cycle, so a scan
// cut short at a chunk end would move a slice switch by an instruction;
// the schedules and cache states must be identical instead, and every
// scan must stop only where its contract says.
func TestRunnersOverGrowingRecordingsMatchDrained(t *testing.T) {
	for _, scfg := range []Config{{Level: 3, TimeSlice: 3000}, {Level: 3, TimeSlice: 1 << 40}, {Level: 2, TimeSlice: 25_000, MaxInstructions: 70_000}} {
		for _, mode := range []Mode{ModeMeasure, ModeWarm, ModeSkip} {
			for _, budget := range []uint64{1 << 62, 137} {
				drain := func(rec func(trace.Stream) *trace.Recorded) (Result, uint64, uint64) {
					sys := newRunnerSystem(t)
					r, err := NewRunner(scanStops{sys, t}, synthProcs(rec), scfg)
					if err != nil {
						t.Fatalf("NewRunner: %v", err)
					}
					r.SetNominalCPI(2.3)
					drainRunner(t, r, budget, mode)
					return r.Result(), sys.CacheFingerprint(), sys.Now()
				}
				grown, gfp, gnow := drain(trace.Record)
				drained, dfp, dnow := drain(trace.Pack)
				if !reflect.DeepEqual(grown, drained) || gfp != dfp || gnow != dnow {
					t.Errorf("%+v, %v mode, budget %d: growing recordings ran\n%+v (cache %#x, clock %d)\ndrained ones\n%+v (cache %#x, clock %d)",
						scfg, mode, budget, grown, gfp, gnow, drained, dfp, dnow)
				}
				if grown.Instructions == 0 || scfg.TimeSlice == 3000 && grown.SliceSwitches == 0 {
					t.Errorf("%+v, %v mode: ran %d instructions with %d slice switches", scfg, mode, grown.Instructions, grown.SliceSwitches)
				}
			}
		}
	}
}
