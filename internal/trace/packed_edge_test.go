package trace

import "testing"

// Edge cases of the Cursor's BatchStream contract, pinned directly at
// stream ends and syscall boundaries: the scheduler's measure-mode batch
// branch (internal/sched) leans on these exact behaviors. A MemTrace has
// no Batch of its own; the TestMemTrace cases pin the same edges on the
// cursor of a packed MemTrace.

func plainEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{PC: uint32(i * 4)}
	}
	return evs
}

func TestCursorSkipToEndExhausts(t *testing.T) {
	r := Pack(NewMemTrace(plainEvents(10)))
	c := r.NewCursor()
	b := c.Batch(10)
	if len(b) != 10 {
		t.Fatalf("Batch(10) = %d events, want 10", len(b))
	}
	c.Skip(len(b))
	if got := c.Batch(5); len(got) != 0 {
		t.Errorf("Batch after full skip = %d events, want 0", len(got))
	}
	var ev Event
	if c.Next(&ev) {
		t.Error("Next after full skip should report exhaustion")
	}
}

func TestCursorZeroAndNegativeBatch(t *testing.T) {
	r := Pack(NewMemTrace(plainEvents(4)))
	c := r.NewCursor()
	if got := c.Batch(0); got != nil {
		t.Errorf("Batch(0) = %v, want nil", got)
	}
	if got := c.Batch(-3); got != nil {
		t.Errorf("Batch(-3) = %v, want nil", got)
	}
	// A degenerate batch must not consume or corrupt the stream.
	var ev Event
	if !c.Next(&ev) || ev.PC != 0 {
		t.Errorf("Next after Batch(0) = %+v, want PC 0", ev)
	}
}

func TestCursorBatchCappedAtDecodeBuffer(t *testing.T) {
	r := Pack(NewMemTrace(plainEvents(cursorBatchMax + 100)))
	c := r.NewCursor()
	b := c.Batch(cursorBatchMax + 50)
	if len(b) != cursorBatchMax {
		t.Fatalf("oversized Batch = %d events, want cap %d", len(b), cursorBatchMax)
	}
	c.Skip(len(b))
	// The remainder is re-presented by the next batch.
	if got := c.Batch(cursorBatchMax); len(got) != 100 {
		t.Errorf("tail Batch = %d events, want 100", len(got))
	}
}

func TestCursorPartialSkipRepresents(t *testing.T) {
	evs := plainEvents(8)
	evs[3].Syscall = true
	evs[3].Stall = 5
	r := Pack(NewMemTrace(evs))
	c := r.NewCursor()

	// A consumer that stops at a syscall boundary skips only what it
	// processed; the rest must come back from the next Batch.
	b := c.Batch(8)
	if len(b) != 8 {
		t.Fatalf("Batch(8) = %d events", len(b))
	}
	// Batch consumes nothing: a second one starts at the same event.
	if again := c.Batch(2); len(again) != 2 || again[0] != evs[0] {
		t.Fatalf("second Batch(2) = %+v, want events 0..1", again)
	}
	c.Skip(4) // through the syscall at index 3
	b2 := c.Batch(8)
	if len(b2) != 4 || b2[0].PC != evs[4].PC {
		t.Fatalf("re-presented batch = %+v, want events 4..7", b2)
	}
	// Partial consumption interleaved with Next: Skip(1) then Next must
	// agree on the remaining order.
	c.Skip(1)
	var ev Event
	if !c.Next(&ev) || ev.PC != evs[5].PC {
		t.Errorf("Next after partial skip = %+v, want %+v", ev, evs[5])
	}
}

func TestCursorSyscallSurvivesBatchBoundary(t *testing.T) {
	// A syscall event exactly at a batch boundary must keep its flags in
	// both the boundary batch and the one after it.
	evs := plainEvents(6)
	evs[2] = Event{PC: 8, Kind: Store, Size: 4, Data: 0x100, Stall: 3, Syscall: true}
	r := Pack(NewMemTrace(evs))
	c := r.NewCursor()

	b := c.Batch(3)
	if len(b) != 3 || !b[2].Syscall || b[2].Data != 0x100 {
		t.Fatalf("boundary batch = %+v, want syscall store last", b)
	}
	c.Skip(2) // leave the syscall unconsumed
	b2 := c.Batch(3)
	if len(b2) == 0 || !b2[0].Syscall || b2[0] != evs[2] {
		t.Fatalf("re-presented syscall = %+v, want %+v", b2[0], evs[2])
	}
}

func TestCursorEmptyRecording(t *testing.T) {
	r := Pack(NewMemTrace(nil))
	c := r.NewCursor()
	if got := c.Batch(16); len(got) != 0 {
		t.Errorf("Batch on empty recording = %d events", len(got))
	}
	var ev Event
	if c.Next(&ev) {
		t.Error("Next on empty recording should report exhaustion")
	}
}

func TestMemTraceSkipToEndExhausts(t *testing.T) {
	c := Pack(NewMemTrace(plainEvents(5))).NewCursor()
	c.Skip(len(c.Batch(5)))
	if got := c.Batch(5); len(got) != 0 {
		t.Errorf("Batch after full skip = %d events, want 0", len(got))
	}
	var ev Event
	if c.Next(&ev) {
		t.Error("Next after full skip should report exhaustion")
	}
}

func TestMemTraceZeroLengthBatch(t *testing.T) {
	c := Pack(NewMemTrace(plainEvents(3))).NewCursor()
	if got := c.Batch(0); len(got) != 0 {
		t.Errorf("Batch(0) = %d events, want 0", len(got))
	}
	var ev Event
	if !c.Next(&ev) || ev.PC != 0 {
		t.Errorf("Next after Batch(0) = %+v, want PC 0", ev)
	}
}
