package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// fakeTarget records steps and advances a fake clock.
type fakeTarget struct {
	now       uint64
	cyclesPer uint64
	pids      []mmu.PID
	pcs       []uint32
	stepErr   error // returned by the first step when set
}

func newFake(cyclesPer uint64) *fakeTarget { return &fakeTarget{cyclesPer: cyclesPer} }

// StepScan steps events one at a time with the Target contract's stops.
func (f *fakeTarget) StepScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error) {
	if max <= 0 {
		return 0, false, nil
	}
	stop := f.now + uint64(max)
	var ev trace.Event
	for c.Next(&ev) {
		n++
		f.now += f.cyclesPer
		f.pids = append(f.pids, pid)
		f.pcs = append(f.pcs, ev.PC)
		if f.stepErr != nil {
			return n, false, f.stepErr
		}
		if ev.Syscall {
			return n, true, nil
		}
		if f.now >= stop {
			break
		}
	}
	return n, false, nil
}

// StepBatch steps a slice of decoded events with StepScan's stops, its
// length as the cycle budget, for streams that are not cursors.
func (f *fakeTarget) StepBatch(pid mmu.PID, evs []trace.Event) (n int, err error) {
	stop := f.now + uint64(len(evs))
	for _, ev := range evs {
		n++
		f.now += f.cyclesPer
		f.pids = append(f.pids, pid)
		f.pcs = append(f.pcs, ev.PC)
		if f.stepErr != nil {
			return n, f.stepErr
		}
		if ev.Syscall || f.now >= stop {
			break
		}
	}
	return n, nil
}

func (f *fakeTarget) Now() uint64 { return f.now }

// mustRun is Run for schedules that cannot fail.
func mustRun(t *testing.T, target Target, procs []Process, cfg Config) Result {
	t.Helper()
	res, err := Run(target, procs, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// mkTrace builds a packed trace of n events; syscallEvery > 0 marks
// every k-th event as a voluntary system call.
func mkTrace(n int, syscallEvery int) *trace.Cursor {
	events := make([]trace.Event, n)
	for i := range events {
		events[i].PC = uint32(i * 4)
		if syscallEvery > 0 && (i+1)%syscallEvery == 0 {
			events[i].Syscall = true
		}
	}
	return trace.Pack(trace.NewMemTrace(events)).NewCursor()
}

func TestAllInstructionsRun(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "a", Stream: mkTrace(10, 0)},
		{Name: "b", Stream: mkTrace(7, 0)},
	}, Config{Level: 2, TimeSlice: 1000})
	if res.Instructions != 17 {
		t.Fatalf("instructions = %d, want 17", res.Instructions)
	}
	if len(res.Completed) != 2 {
		t.Fatalf("completed = %v, want both", res.Completed)
	}
}

func TestSyscallCausesSwitch(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "a", Stream: mkTrace(4, 2)}, // syscalls at events 2 and 4
		{Name: "b", Stream: mkTrace(4, 2)},
	}, Config{Level: 2, TimeSlice: 1 << 40})
	if res.SyscallSwitches != 4 {
		t.Fatalf("syscall switches = %d, want 4", res.SyscallSwitches)
	}
	// The pid sequence must alternate in pairs: a,a,b,b,a,a,b,b.
	want := []mmu.PID{1, 1, 2, 2, 1, 1, 2, 2}
	for i, pid := range ft.pids {
		if pid != want[i] {
			t.Fatalf("pid sequence %v, want %v", ft.pids, want)
		}
	}
}

func TestNoSyscallSwitchOption(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "a", Stream: mkTrace(4, 2)},
		{Name: "b", Stream: mkTrace(4, 2)},
	}, Config{Level: 2, TimeSlice: 1 << 40, NoSyscallSwitch: true})
	if res.SyscallSwitches != 0 {
		t.Fatalf("syscall switches = %d, want 0", res.SyscallSwitches)
	}
	// Process a runs to completion before b starts.
	for i, pid := range ft.pids[:4] {
		if pid != 1 {
			t.Fatalf("event %d from pid %d, want 1", i, pid)
		}
	}
}

func TestTimeSliceRotation(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "a", Stream: mkTrace(20, 0)},
		{Name: "b", Stream: mkTrace(20, 0)},
	}, Config{Level: 2, TimeSlice: 5})
	if res.SliceSwitches == 0 {
		t.Fatal("no slice switches with a tiny slice")
	}
	// First five events from pid 1, next five from pid 2.
	for i := 0; i < 5; i++ {
		if ft.pids[i] != 1 {
			t.Fatalf("event %d from pid %d, want 1", i, ft.pids[i])
		}
		if ft.pids[5+i] != 2 {
			t.Fatalf("event %d from pid %d, want 2", 5+i, ft.pids[5+i])
		}
	}
}

func TestLevelLimitsConcurrency(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "a", Stream: mkTrace(3, 1)}, // syscall every instruction
		{Name: "b", Stream: mkTrace(3, 1)},
		{Name: "c", Stream: mkTrace(3, 1)},
	}, Config{Level: 2, TimeSlice: 1 << 40})
	// pid 3 (process c) must not appear until someone completed, i.e.
	// after at least 3 events of one of a/b.
	first3 := -1
	for i, pid := range ft.pids {
		if pid == 3 {
			first3 = i
			break
		}
	}
	if first3 < 0 {
		t.Fatal("process c never ran")
	}
	count1 := 0
	for _, pid := range ft.pids[:first3] {
		if pid == 1 {
			count1++
		}
	}
	if count1 != 3 {
		t.Fatalf("process c started before a finished (a had run %d of 3)", count1)
	}
	if len(res.Completed) != 3 {
		t.Fatalf("completed %v", res.Completed)
	}
}

func TestCompletionOrderRecorded(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "long", Stream: mkTrace(10, 1)},
		{Name: "short", Stream: mkTrace(2, 1)},
	}, Config{Level: 2, TimeSlice: 1 << 40})
	if len(res.Completed) != 2 || res.Completed[0] != "short" || res.Completed[1] != "long" {
		t.Fatalf("completion order %v, want [short long]", res.Completed)
	}
}

func TestMaxInstructionsStopsEarly(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{{Name: "a", Stream: mkTrace(1000, 0)}},
		Config{Level: 1, TimeSlice: 100, MaxInstructions: 42})
	if res.Instructions != 42 {
		t.Fatalf("instructions = %d, want 42", res.Instructions)
	}
}

func TestDefaultsApplied(t *testing.T) {
	ft := newFake(1)
	// Level 0 -> 8; slice 0 -> 500k. With one short process neither
	// default changes behaviour, but the run must still complete.
	res := mustRun(t, ft, []Process{{Name: "a", Stream: mkTrace(5, 0)}}, Config{})
	if res.Instructions != 5 {
		t.Fatalf("instructions = %d, want 5", res.Instructions)
	}
}

func TestDistinctPIDsPerProcess(t *testing.T) {
	ft := newFake(1)
	mustRun(t, ft, []Process{
		{Name: "a", Stream: mkTrace(2, 0)},
		{Name: "b", Stream: mkTrace(2, 0)},
		{Name: "c", Stream: mkTrace(2, 0)},
	}, Config{Level: 3, TimeSlice: 1})
	seen := map[mmu.PID]bool{}
	for _, pid := range ft.pids {
		seen[pid] = true
	}
	if len(seen) != 3 {
		t.Fatalf("distinct PIDs = %d, want 3", len(seen))
	}
	if seen[0] {
		t.Fatal("PID 0 must never be assigned")
	}
}

func TestCyclesPerSwitch(t *testing.T) {
	ft := newFake(10)
	res := mustRun(t, ft, []Process{
		{Name: "a", Stream: mkTrace(10, 0)},
		{Name: "b", Stream: mkTrace(10, 0)},
	}, Config{Level: 2, TimeSlice: 50}) // 5 instructions per slice
	if res.Switches == 0 {
		t.Fatal("no switches")
	}
	if res.CyclesPerSwitch <= 0 {
		t.Fatalf("CyclesPerSwitch = %g", res.CyclesPerSwitch)
	}
	if !strings.Contains(res.String(), "switches") {
		t.Fatal("String() malformed")
	}
}

func TestEmptyProcessList(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, nil, Config{})
	if res.Instructions != 0 || len(res.Completed) != 0 {
		t.Fatalf("empty run produced %+v", res)
	}
}

func TestZeroLengthProcess(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "empty", Stream: mkTrace(0, 0)},
		{Name: "real", Stream: mkTrace(3, 0)},
	}, Config{Level: 2, TimeSlice: 100})
	if res.Instructions != 3 {
		t.Fatalf("instructions = %d, want 3", res.Instructions)
	}
	if len(res.Completed) != 2 {
		t.Fatalf("completed %v", res.Completed)
	}
}

func TestPerProcessAccounting(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "a", Stream: mkTrace(7, 0)},
		{Name: "b", Stream: mkTrace(3, 0)},
	}, Config{Level: 2, TimeSlice: 2})
	if res.PerProcess["a"] != 7 || res.PerProcess["b"] != 3 {
		t.Fatalf("per-process counts %v, want a=7 b=3", res.PerProcess)
	}
}

// failingStream yields n good events, then fails like a Reader over a
// truncated tape: Batch comes back empty and Err reports why. It is a
// trace.BatchStream that is not a cursor, the one kind of stream the
// scheduler takes that can fail.
type failingStream struct {
	n   int
	err error
	buf []trace.Event
}

func (f *failingStream) Next(ev *trace.Event) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	ev.PC = uint32(f.n * 4)
	return true
}

func (f *failingStream) Batch(max int) []trace.Event {
	f.buf = f.buf[:0]
	for i := range min(max, f.n) {
		f.buf = append(f.buf, trace.Event{PC: uint32((f.n - 1 - i) * 4)})
	}
	return f.buf
}

func (f *failingStream) Skip(n int) { f.n -= n }

func (f *failingStream) Err() error { return f.err }

func TestStreamErrorSurfaces(t *testing.T) {
	ft := newFake(1)
	streamErr := errors.New("tape truncated at record 3")
	res, err := Run(ft, []Process{
		{Name: "good", Stream: mkTrace(5, 1)}, // syscall each event: interleave
		{Name: "bad", Stream: &failingStream{n: 3, err: streamErr}},
	}, Config{Level: 2, TimeSlice: 1 << 40})
	if !errors.Is(err, streamErr) {
		t.Fatalf("err = %v, want wrapped %v", err, streamErr)
	}
	if !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("error %q does not name the failing process", err)
	}
	// The instructions that ran before the failure must be reported, not
	// zero-filled.
	if res.Instructions == 0 || res.PerProcess["bad"] != 3 {
		t.Fatalf("partial result lost: %+v", res)
	}
}

func TestStepErrorSurfaces(t *testing.T) {
	ft := newFake(1)
	ft.stepErr = errors.New("model fault")
	res, err := Run(ft, []Process{{Name: "a", Stream: mkTrace(10, 0)}},
		Config{Level: 1, TimeSlice: 100})
	if !errors.Is(err, ft.stepErr) {
		t.Fatalf("err = %v, want wrapped %v", err, ft.stepErr)
	}
	if !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("error %q does not name the process", err)
	}
	if res.Instructions != 1 {
		t.Fatalf("instructions = %d, want 1 (stop at first fault)", res.Instructions)
	}
}

// TestCleanEOFNotAnError: a stream with an Err method that stays nil
// must terminate the process normally.
func TestCleanEOFNotAnError(t *testing.T) {
	ft := newFake(1)
	res := mustRun(t, ft, []Process{
		{Name: "a", Stream: &failingStream{n: 4}},
	}, Config{Level: 1, TimeSlice: 100})
	if res.Instructions != 4 || len(res.Completed) != 1 {
		t.Fatalf("clean run mishandled: %+v", res)
	}
}
