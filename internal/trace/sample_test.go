package trace

import "testing"

func seqTrace(n int) *MemTrace {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{PC: uint32(i * 4)}
	}
	return NewMemTrace(events)
}

func TestWindow(t *testing.T) {
	// keep 2 of every 5: events 0,1,5,6,10,11 of 12.
	s := Window(seqTrace(12), 2, 5)
	var pcs []uint32
	var ev Event
	for s.Next(&ev) {
		pcs = append(pcs, ev.PC/4)
	}
	want := []uint32{0, 1, 5, 6, 10, 11}
	if len(pcs) != len(want) {
		t.Fatalf("window yielded %v, want %v", pcs, want)
	}
	for i := range want {
		if pcs[i] != want[i] {
			t.Fatalf("window yielded %v, want %v", pcs, want)
		}
	}
}

func TestWindowDegenerate(t *testing.T) {
	// keep >= period passes everything through.
	s := Window(seqTrace(4), 5, 5)
	n := 0
	var ev Event
	for s.Next(&ev) {
		n++
	}
	if n != 4 {
		t.Fatalf("degenerate window yielded %d, want 4", n)
	}
}
