package workload

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// faultyStream yields the first n events of src, then fails with err,
// as an emulator that faults at its next instruction does.
type faultyStream struct {
	src trace.Stream
	n   int
	err error
}

func (f *faultyStream) Next(ev *trace.Event) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	return f.src.Next(ev)
}

func (f *faultyStream) Err() error {
	if f.n == 0 {
		return f.err
	}
	return nil
}

// faultySuite returns three paper-like members of 100k instructions
// each. With err set, the second, named "faulty", fails after n events.
// *started counts the streams that member's NewStream starts.
func faultySuite(n int, err error, started *int) []Member {
	ms := PaperLike(3, 100_000)
	clean := ms[1].NewStream
	ms[1].Name = "faulty"
	ms[1].NewStream = func(scale int) trace.Stream {
		*started++
		if err == nil {
			return clean(scale)
		}
		return &faultyStream{src: clean(scale), n: n, err: err}
	}
	return ms
}

// TestMemberFaultFailsTheRunThatReachesIt pins where a member's stream
// failure surfaces now that recordings grow as runs read them: a run
// capped before the member reaches the failing event succeeds, with the
// result it gives on a clean member, and a run that reaches it fails,
// in every mode, naming the member and the events it produced, without
// a panic.
func TestMemberFaultFailsTheRunThatReachesIt(t *testing.T) {
	const n = 20_000
	streamErr := errors.New("emulator fault at instruction 20001")
	var started int
	rs := record(faultySuite(n, streamErr, &started), 1)
	capped := sched.Config{Level: 3, TimeSlice: 5_000, MaxInstructions: 30_000}
	got, err := sim.Run(core.Base(), ReplayProcesses(rs), capped)
	if err != nil || got.Sched.PerProcess["faulty"] == 0 || got.Sched.PerProcess["faulty"] >= n {
		t.Fatalf("capped run = %v, %d instructions of \"faulty\"; want success short of %d", err, got.Sched.PerProcess["faulty"], n)
	}
	want, err := sim.Run(core.Base(), ReplayProcesses(record(faultySuite(0, nil, new(int)), 1)), capped)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("capped run over the faulty member\n%+v\nwant the clean member's\n%+v (%v)", got, want, err)
	}

	full := sched.Config{Level: 3, TimeSlice: 5_000}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, streamErr) || !strings.Contains(err.Error(), `process "faulty"`) || !strings.Contains(err.Error(), "after 20000 events") {
			t.Errorf("%s reaching the fault = %v; want %v from process \"faulty\" after 20000 events", what, err, streamErr)
		}
	}
	_, err = sim.Run(core.Base(), ReplayProcesses(rs), full)
	check("sim.Run", err)
	for _, mode := range []sched.Mode{sched.ModeSkip, sched.ModeWarm} {
		sys, err := core.NewSystem(core.Base())
		if err != nil {
			t.Fatal(err)
		}
		r, err := sched.NewRunner(sys, ReplayProcesses(rs), full)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.RunFor(math.MaxUint64, mode)
		check(mode.String()+"-mode Runner", err)
	}
	if started != 1 || rs[1].Trace.Len() != n {
		t.Errorf("the faulty member started %d streams and recorded %d events; want 1 and %d", started, rs[1].Trace.Len(), n)
	}
}

// TestRecordingFailsEveryCall pins the failure contract of a shared
// recording: a member whose stream fails is emulated once, its failure
// is kept with its recording, never as a clean short end, and every run
// that reaches it fails with the same error, without emulating again.
func TestRecordingFailsEveryCall(t *testing.T) {
	streamErr := errors.New("step limit exceeded")
	var started int
	rs := record(faultySuite(5_000, streamErr, &started), 1)
	var first error
	for call := 0; call < 3; call++ {
		_, err := sim.Run(core.Base(), ReplayProcesses(rs), sched.Config{Level: 2})
		if !errors.Is(err, streamErr) {
			t.Fatalf("run %d = %v, want %v", call, err, streamErr)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Errorf("run %d failed with %q, run 0 with %q", call, err, first)
		}
	}
	if started != 1 {
		t.Errorf("started %d streams of the faulty member, want 1", started)
	}
}

// TestRecordMatchesSerialPack checks that recording on demand changes
// no event: each member of Record(1), read to its end, equals a serial
// trace.Pack of a fresh stream of that member, in name, class, length,
// size and every event.
func TestRecordMatchesSerialPack(t *testing.T) {
	rec := Record(1)
	members := Members()
	if len(rec) != len(members) {
		t.Fatalf("Record(1) has %d members, want %d", len(rec), len(members))
	}
	for i, m := range members {
		want := trace.Pack(m.NewStream(1))
		got := rec[i]
		gc, wc := got.Trace.NewCursor(), want.NewCursor()
		var ge, we trace.Event
		for k := 0; ; k++ {
			gok, wok := gc.Next(&ge), wc.Next(&we)
			if gok != wok || ge != we {
				t.Errorf("member %s, event %d: Record(1) has %v %+v, serial Pack %v %+v", m.Name, k, gok, ge, wok, we)
				break
			}
			if !gok {
				break
			}
		}
		if got.Name != m.Name || got.Class != m.Class || got.Trace.Len() != want.Len() || got.Trace.Bytes() != want.Bytes() {
			t.Errorf("member %d: Record(1) has %s (%s, %d events, %d bytes); serial Pack of %s (%s) has %d events, %d bytes",
				i, got.Name, got.Class, got.Trace.Len(), got.Trace.Bytes(), m.Name, m.Class, want.Len(), want.Bytes())
		}
	}
}

// TestConcurrentRunsGrowOneRecording replays one growing recording of
// the scale-1 suite from several goroutines at once, under different
// caps and modes, each of which records the chunks it is first to
// reach. Each run must give the schedule and cache state it gives alone
// on a fresh recording; under -race, the growth must share nothing
// unguarded with the readers.
func TestConcurrentRunsGrowOneRecording(t *testing.T) {
	runs := []struct {
		max  uint64
		mode sched.Mode
	}{
		{150_000, sched.ModeMeasure},
		{600_000, sched.ModeMeasure},
		{1_000_000, sched.ModeSkip},
		{1_000_000, sched.ModeWarm},
		{300_000, sched.ModeWarm},
	}
	type outcome struct {
		res sched.Result
		fp  uint64
		err error
	}
	replay := func(rs []Recorded, max uint64, mode sched.Mode) outcome {
		sys, err := core.NewSystem(core.Base())
		if err != nil {
			return outcome{err: err}
		}
		r, err := sched.NewRunner(sys, ReplayProcesses(rs), sched.Config{Level: 8, TimeSlice: 50_000, MaxInstructions: max})
		if err != nil {
			return outcome{err: err}
		}
		r.SetNominalCPI(1.7)
		_, err = r.RunFor(math.MaxUint64, mode)
		return outcome{res: r.Result(), fp: sys.CacheFingerprint(), err: err}
	}
	shared := record(Members(), 1)
	got := make([]outcome, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = replay(shared, run.max, run.mode)
		}()
	}
	wg.Wait()
	for i, run := range runs {
		want := replay(record(Members(), 1), run.max, run.mode)
		if got[i].err != nil || !reflect.DeepEqual(got[i], want) {
			t.Errorf("%v run capped at %d: concurrent on one recording\n%+v\nalone on a fresh one\n%+v", run.mode, run.max, got[i], want)
		}
		if got[i].res.Instructions != run.max {
			t.Errorf("%v run capped at %d ran %d instructions", run.mode, run.max, got[i].res.Instructions)
		}
	}
}
