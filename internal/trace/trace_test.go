package trace

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{None, "none"},
		{Load, "load"},
		{Store, "store"},
		{Kind(7), "Kind(7)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestMemTraceReplay(t *testing.T) {
	events := []Event{
		{PC: 0x1000, Kind: None},
		{PC: 0x1004, Kind: Load, Data: 0x8000, Size: 4},
		{PC: 0x1008, Kind: Store, Data: 0x8004, Size: 1, Syscall: true},
	}
	mt := NewMemTrace(events)
	for round := 0; round < 3; round++ {
		mt.Reset()
		var got []Event
		var ev Event
		for mt.Next(&ev) {
			got = append(got, ev)
		}
		if len(got) != len(events) {
			t.Fatalf("round %d: got %d events, want %d", round, len(got), len(events))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Errorf("round %d: event %d = %+v, want %+v", round, i, got[i], events[i])
			}
		}
	}
}

func TestMemTraceNextAfterEnd(t *testing.T) {
	mt := NewMemTrace([]Event{{PC: 4}})
	var ev Event
	if !mt.Next(&ev) {
		t.Fatal("first Next returned false")
	}
	for i := 0; i < 3; i++ {
		if mt.Next(&ev) {
			t.Fatal("Next after end returned true")
		}
	}
}

func TestMemTraceAppendAndLen(t *testing.T) {
	var mt MemTrace
	if mt.Len() != 0 {
		t.Fatalf("zero MemTrace Len = %d, want 0", mt.Len())
	}
	mt.Append(Event{PC: 8})
	mt.Append(Event{PC: 12})
	if mt.Len() != 2 {
		t.Fatalf("Len = %d, want 2", mt.Len())
	}
	if mt.Events()[1].PC != 12 {
		t.Errorf("Events()[1].PC = %#x, want 12", mt.Events()[1].PC)
	}
}

func TestCloneIndependentPosition(t *testing.T) {
	mt := NewMemTrace([]Event{{PC: 0}, {PC: 4}, {PC: 8}})
	var ev Event
	mt.Next(&ev)
	mt.Next(&ev)
	c := mt.Clone()
	if !c.Next(&ev) || ev.PC != 0 {
		t.Fatalf("clone did not start at beginning: got PC %#x", ev.PC)
	}
	// Advancing the clone must not disturb the original.
	if !mt.Next(&ev) || ev.PC != 8 {
		t.Fatalf("original position disturbed: got PC %#x, want 8", ev.PC)
	}
}

func TestCollect(t *testing.T) {
	src := NewMemTrace([]Event{{PC: 0}, {PC: 4}})
	got := Collect(src)
	if got.Len() != 2 {
		t.Fatalf("Collect len = %d, want 2", got.Len())
	}
}

func TestLimit(t *testing.T) {
	src := NewMemTrace([]Event{{PC: 0}, {PC: 4}, {PC: 8}})
	lim := Limit(src, 2)
	var ev Event
	n := 0
	for lim.Next(&ev) {
		n++
	}
	if n != 2 {
		t.Fatalf("Limit yielded %d events, want 2", n)
	}
	// A limit larger than the stream yields everything.
	src2 := NewMemTrace([]Event{{PC: 0}})
	lim2 := Limit(src2, 10)
	n = 0
	for lim2.Next(&ev) {
		n++
	}
	if n != 1 {
		t.Fatalf("oversized Limit yielded %d events, want 1", n)
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	s := FuncStream(func(ev *Event) bool {
		if n >= 3 {
			return false
		}
		ev.PC = uint32(n * 4)
		n++
		return true
	})
	got := Collect(s)
	if got.Len() != 3 {
		t.Fatalf("FuncStream yielded %d, want 3", got.Len())
	}
}

// Property: replaying a MemTrace yields exactly the events it was built
// from, in order, for arbitrary event contents.
func TestMemTraceRoundTripProperty(t *testing.T) {
	f := func(pcs []uint32, dataSeed uint32) bool {
		events := make([]Event, len(pcs))
		for i, pc := range pcs {
			events[i] = Event{
				PC:      pc,
				Data:    pc ^ dataSeed,
				Kind:    Kind(i % 3),
				Size:    uint8(1 << (i % 3)),
				Stall:   uint8(i % 5),
				Syscall: i%7 == 0,
			}
		}
		mt := NewMemTrace(events)
		var ev Event
		for i := 0; mt.Next(&ev); i++ {
			if ev != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
