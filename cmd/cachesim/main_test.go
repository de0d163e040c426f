package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// failingStream yields n good events, then stops; with err set it fails
// like an emulator that faults, reporting why through Err.
type failingStream struct {
	n   int
	err error
}

func (f *failingStream) Next(ev *trace.Event) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	ev.PC = uint32(f.n * 4)
	return true
}

func (f *failingStream) Err() error { return f.err }

// TestPackReportsStreamError pins where a live member's failure
// surfaces now that the scheduler steps cursors, which cannot fail:
// packing returns the stream's error with the count of events it
// produced, while a stream whose Err stays nil packs every event.
func TestPackReportsStreamError(t *testing.T) {
	streamErr := errors.New("emulator fault at instruction 3")
	if _, err := pack(&failingStream{n: 3, err: streamErr}, 0); !errors.Is(err, streamErr) || !strings.Contains(err.Error(), "after 3 instructions") {
		t.Fatalf("pack of a failing stream: err = %v, want %v after 3 instructions", err, streamErr)
	}
	rec, err := pack(&failingStream{n: 4}, 0)
	if err != nil || rec.Len() != 4 {
		t.Fatalf("pack of a clean stream = %d events, %v; want 4, nil", rec.Len(), err)
	}
}

// TestPackCapIsExact pins the -max cap: members packed only up to the
// run's instruction cap give the same run as the full recordings,
// including at level 1, where the first member runs the whole cap and
// its cut end coincides with the run's stop.
func TestPackCapIsExact(t *testing.T) {
	const perProc, max = 50_000, 30_000
	for _, level := range []int{1, 4} {
		scfg := sched.Config{Level: level, TimeSlice: 20_000, MaxInstructions: max}
		procs := workload.PaperLike(4, perProc)
		for i, p := range procs {
			rec, err := pack(p.Stream, max)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Len() != max {
				t.Fatalf("member %s packed %d events, want the cap %d", p.Name, rec.Len(), max)
			}
			procs[i].Stream = rec.NewCursor()
		}
		got, err := sim.Run(core.Base(), procs, scfg)
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
