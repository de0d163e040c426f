package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// packedSamples covers every encoding tag: plain instructions, stalled
// and syscall instructions without data, loads/stores, and the raw
// escape for unaligned PCs.
func packedSamples() []Event {
	return []Event{
		{},                          // zero event: plain, PC 0
		{PC: 0x1000},                // plain
		{PC: 0x1004, Stall: 3},      // meta only
		{PC: 0x1008, Syscall: true}, // meta only (syscall bit)
		{PC: 0x100c, Kind: Load, Size: 4, Data: 0x2000},                           // data
		{PC: 0x1010, Kind: Store, Size: 1, Data: 0x2001},                          // data, partial word
		{PC: 0x1014, Kind: Load, Size: 8, Data: 0, Stall: 255},                    // data==0 but meta != 0
		{PC: 0x1015, Kind: Store, Size: 2, Data: 0x3000, Stall: 7, Syscall: true}, // raw escape
		{PC: 0x1016}, // raw escape, everything else zero
		{PC: 0xfffffffc, Data: 0xffffffff, Kind: Load, Size: 4, Stall: 255, Syscall: true},
	}
}

func TestPackRoundTrip(t *testing.T) {
	evs := packedSamples()
	r := Pack(NewMemTrace(evs))
	if r.Len() != len(evs) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(evs))
	}
	c := r.NewCursor()
	var got Event
	for i, want := range evs {
		if !c.Next(&got) {
			t.Fatalf("Next returned false at event %d", i)
		}
		if got != want {
			t.Errorf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if c.Next(&got) {
		t.Errorf("Next returned true past the end")
	}
	if c.Next(&got) {
		t.Errorf("Next returned true on second call past the end")
	}
}

func TestPackRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1)) //lint:allow determinism fixed-seed test input generation
	evs := make([]Event, 5000)
	for i := range evs {
		evs[i] = Event{
			PC:      rng.Uint32(),
			Data:    rng.Uint32(),
			Kind:    Kind(rng.Intn(3)),
			Size:    uint8(rng.Intn(256)),
			Stall:   uint8(rng.Intn(256)),
			Syscall: rng.Intn(16) == 0,
		}
	}
	r := Pack(NewMemTrace(evs))
	got := Collect(r.NewCursor()).Events()
	if len(got) != len(evs) {
		t.Fatalf("got %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}
}

func TestPackCompaction(t *testing.T) {
	// A trace of plain aligned instructions should pack to 4 bytes per
	// event, versus 12 for the unpacked Event struct.
	var mt MemTrace
	for i := 0; i < 100; i++ {
		mt.Append(Event{PC: uint32(i * 4)})
	}
	r := Pack(&mt)
	if r.Bytes() != 400 {
		t.Errorf("Bytes = %d, want 400 for 100 plain events", r.Bytes())
	}
}

func TestCursorBatchSkip(t *testing.T) {
	evs := make([]Event, 1000)
	for i := range evs {
		evs[i] = Event{PC: uint32(i * 4), Stall: uint8(i % 7)}
		if i%13 == 0 {
			evs[i].Kind = Load
			evs[i].Size = 4
			evs[i].Data = uint32(i * 8)
		}
	}
	r := Pack(NewMemTrace(evs))

	// Consume via Batch/Skip with awkward sizes, interleaved with Next,
	// and check the merged sequence matches.
	c := r.NewCursor()
	var got []Event
	step := 0
	for {
		step++
		if step%3 == 0 {
			var ev Event
			if !c.Next(&ev) {
				break
			}
			got = append(got, ev)
			continue
		}
		b := c.Batch(step%17 + 1)
		if len(b) == 0 {
			break
		}
		// Sometimes consume fewer events than peeked.
		n := len(b)
		if step%5 == 0 && n > 1 {
			n--
		}
		got = append(got, b[:n]...)
		c.Skip(n)
	}
	if len(got) != len(evs) {
		t.Fatalf("consumed %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}
}

// TestMemTraceBatchSkip: a MemTrace has no Batch of its own; its events
// reach a batch consumer through the cursor of its packed recording,
// which must batch without consuming, skip, and interleave with Next
// over them in order to the end.
func TestMemTraceBatchSkip(t *testing.T) {
	evs := []Event{{PC: 0}, {PC: 4}, {PC: 8}, {PC: 12}, {PC: 16}}
	c := Pack(NewMemTrace(evs)).NewCursor()
	b := c.Batch(3)
	if len(b) != 3 || b[0].PC != 0 || b[2].PC != 8 {
		t.Fatalf("Batch(3) = %+v", b)
	}
	// Batch must not consume.
	b2 := c.Batch(2)
	if len(b2) != 2 || b2[0].PC != 0 {
		t.Fatalf("second Batch(2) = %+v", b2)
	}
	c.Skip(2)
	var ev Event
	if !c.Next(&ev) || ev.PC != 8 {
		t.Fatalf("Next after Skip(2) = %+v", ev)
	}
	b3 := c.Batch(10)
	if len(b3) != 2 || b3[0].PC != 12 {
		t.Fatalf("Batch(10) near end = %+v", b3)
	}
	c.Skip(2)
	if len(c.Batch(1)) != 0 {
		t.Fatalf("Batch after exhaustion should be empty")
	}
	if c.Next(&ev) {
		t.Fatalf("Next after exhaustion should be false")
	}
}

func TestCursorIndependence(t *testing.T) {
	var mt MemTrace
	for i := 0; i < 50; i++ {
		mt.Append(Event{PC: uint32(i * 4)})
	}
	r := Pack(&mt)
	a, b := r.NewCursor(), r.NewCursor()
	var ev Event
	for i := 0; i < 20; i++ {
		a.Next(&ev)
	}
	if ev.PC != 19*4 {
		t.Fatalf("cursor a at PC %#x, want %#x", ev.PC, 19*4)
	}
	if !b.Next(&ev) || ev.PC != 0 {
		t.Fatalf("cursor b should start at PC 0, got %#x", ev.PC)
	}
}

// TestPackChunksMatchAppend packs streams spanning several of Pack's
// encoding chunks and checks each against the same events added one at
// a time with Append: the words, the length, the skip index (whose
// block offsets must be offsets into the joined stream, not into a
// chunk), the syscall list, and where every step of a SkipScan walk
// lands. The events cycle through all four tags, the unaligned-PC
// escape among them, with syscalls mixed in, so every chunk join falls
// among events of each tag; the four rotations of the cycle move the
// joins across its word phases. The packed stream must also end with
// exactly decodeSlack words of spare capacity.
func TestPackChunksMatchAppend(t *testing.T) {
	cycle := []Event{
		{PC: 0x400000},           // plain: 1 word
		{PC: 0x400004, Stall: 2}, // meta: 2 words
		{PC: 0x400008, Kind: Load, Size: 4, Data: 0x1000},  // data: 3 words
		{PC: 0x40000d, Kind: Store, Size: 1, Data: 0x1001}, // raw escape: 4 words
	}
	const n = 100_000 // ~250k words: four chunks
	for rot := range cycle {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = cycle[(i+rot)%len(cycle)]
			evs[i].PC += uint32(i) * 16
			evs[i].Syscall = i%997 == 0
		}
		p := Pack(NewMemTrace(evs))
		a := &Recorded{}
		for i := range evs {
			a.Append(&evs[i])
		}
		if len(p.words) < 3*packChunkWords {
			t.Fatalf("rotation %d: %d words span fewer than 3 chunks", rot, len(p.words))
		}
		if p.Len() != a.Len() || !slices.Equal(p.words, a.words) ||
			!slices.Equal(p.blockWord, a.blockWord) || !slices.Equal(p.sysEv, a.sysEv) {
			t.Fatalf("rotation %d: Pack (%d events, %d words, %d blocks, %d syscalls) differs from Append (%d, %d, %d, %d)",
				rot, p.Len(), len(p.words), len(p.blockWord), len(p.sysEv), a.Len(), len(a.words), len(a.blockWord), len(a.sysEv))
		}
		if spare := cap(p.words) - len(p.words); spare != decodeSlack {
			t.Errorf("rotation %d: Pack left %d words of spare capacity, want %d", rot, spare, decodeSlack)
		}
		pc, ac := p.NewCursor(), a.NewCursor()
		for step := 0; ; step++ {
			budget := []int{1, 3, 4095, 4096, 4097, 9_999, 65_536}[step%7]
			pn, psys := pc.SkipScan(budget)
			an, asys := ac.SkipScan(budget)
			if pn != an || psys != asys || pc.w != ac.w || pc.wEv != ac.wEv {
				t.Fatalf("rotation %d, SkipScan step %d (budget %d): Pack landed at (%d, %v, word %d, event %d), Append at (%d, %v, word %d, event %d)",
					rot, step, budget, pn, psys, pc.w, pc.wEv, an, asys, ac.w, ac.wEv)
			}
			if pn == 0 {
				break
			}
		}
	}
}
