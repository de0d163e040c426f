package trace

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// errFuzzSource is the failure a fuzzed source reports after its last
// event when the input asks for one.
var errFuzzSource = errors.New("fuzzed source failed")

// failAfter is a MemTrace that, with err set, fails once its events run
// out, as an emulator that faults does.
type failAfter struct {
	MemTrace
	err error
}

func (f *failAfter) Err() error {
	if f.pos < len(f.events) {
		return nil
	}
	return f.err
}

// rawScan walks up to max events from c through RawWords and DecodeAt,
// as the exact, warming and screening scans do: on across chunk ends,
// stopping after a syscall event. It returns the events walked.
func rawScan(c *Cursor, max int) (got []Event, syscall bool) {
	if max <= 0 {
		return nil, false
	}
	words, w := c.RawWords()
	n, n0 := 0, 0
	for w < len(words) {
		for n < max && w < len(words) && !syscall {
			pc, meta, data, next := DecodeAt(words, w)
			var e Event
			setEvent(&e, pc, meta, data)
			got = append(got, e)
			syscall = e.Syscall
			w = next
			n++
		}
		c.RawAdvance(w, n-n0)
		n0 = n
		if n == max || syscall {
			break
		}
		words, w = c.RawWords()
	}
	return got, syscall
}

// FuzzGrowMatchesPack reads a recording that grows on demand through
// three cursors at once, in a drawn interleaving of Next, Batch with a
// partial Skip, SkipScan and raw scans, each with a drawn budget, and
// mirrors every call on three cursors over the same events drained in
// full by Pack. Each call must hand out the same events, counts and
// syscall stops on both sides, and those the event list says: a scan
// never stops at a chunk end. The growing recording must never hold a
// chunk past the one with the furthest event a cursor has read, and it
// must end with Pack's chunks, word for word. When the source fails
// after its last event, every cursor reports the failure once it has
// read that far, and not before.
func FuzzGrowMatchesPack(f *testing.F) {
	f.Add(fuzzInput(0, fuzzSeedEvents), false)
	f.Add(fuzzInput(0, packedSamples()), true)
	mixed := []Event{
		{PC: 0x400000},
		{PC: 0x400004, Stall: 2},
		{PC: 0x400009, Kind: Store, Size: 1, Data: 0x1001},
		{PC: 0x40000c, Kind: Load, Size: 4},
		{PC: 0x400010, Syscall: true},
		{PC: 0xfffffffc, Kind: 255, Size: 255, Stall: 255, Data: 0xffffffff},
	}
	for i := 0; i < 14; i++ {
		mixed = append(mixed, Event{PC: 0x400100 + 4*uint32(i)})
	}
	f.Add(fuzzInput(255, mixed), false)          // 5120 events: two chunks
	f.Add(fuzzInput(255, mixed[6:]), true)       // 3584 plain events: one chunk
	f.Add(fuzzInput(255, mixed[:3]), false)      // 768 events, 7 words a cycle
	f.Add(fuzzInput(255, packedSamples()), true) // raw escapes and syscalls
	f.Fuzz(func(t *testing.T, data []byte, fail bool) {
		evs := fuzzEvents(data)
		source := func() *failAfter {
			s := &failAfter{MemTrace: MemTrace{events: evs}}
			if fail {
				s.err = errFuzzSource
			}
			return s
		}
		p := Pack(source())
		g := Record(source())
		if g.Len() != 0 || g.Bytes() != 0 {
			t.Fatalf("Record encoded %d events before any read", g.Len())
		}
		var seed int64
		for _, b := range data {
			seed = seed*31 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed)) //lint:allow determinism seeded from the fuzz input
		const cursors = 3
		var gc, pc [cursors]*Cursor
		var pos [cursors]int // the next event of each pair
		for i := range gc {
			gc[i], pc[i] = g.NewCursor(), p.NewCursor()
		}
		furthest := 0 // one past the furthest event any cursor has read
		for step := 0; ; step++ {
			i := rng.Intn(cursors)
			if pos[i] == len(evs) {
				i = slices.IndexFunc(pos[:], func(p int) bool { return p < len(evs) })
				if i < 0 {
					break
				}
			}
			// A budget from 0 to past the events left, often small.
			budget := rng.Intn(1 + []int{8, 64, 2 * chunkWords, maxFuzzEvents}[rng.Intn(4)])
			at := pos[i]
			var got, want []Event
			var gotSys, wantSys bool
			op := rng.Intn(4)
			switch op {
			case 0:
				var ge, pe Event
				gok, pok := gc[i].Next(&ge), pc[i].Next(&pe)
				if !gok || !pok || ge != pe {
					t.Fatalf("step %d, cursor %d at event %d: Next = %v %+v, drained %v %+v", step, i, at, gok, ge, pok, pe)
				}
				got, want = []Event{ge}, []Event{pe}
			case 1:
				got = slices.Clone(gc[i].Batch(budget))
				want = pc[i].Batch(budget)
				furthest = max(furthest, at+len(got))
				k := rng.Intn(len(got) + 1)
				if !slices.Equal(got, want) || len(got) != min(budget, cursorBatchMax, len(evs)-at) ||
					!slices.Equal(got, evs[at:at+len(got)]) {
					t.Fatalf("step %d, cursor %d at event %d: Batch(%d) = %d events, drained %d", step, i, at, budget, len(got), len(want))
				}
				gc[i].Skip(k)
				pc[i].Skip(k)
				got, want = got[:k], want[:k]
			case 2:
				gn, gs := gc[i].SkipScan(budget)
				pn, ps := pc[i].SkipScan(budget)
				if gn != pn || gs != ps {
					t.Fatalf("step %d, cursor %d at event %d: SkipScan(%d) = (%d, %v), drained (%d, %v)", step, i, at, budget, gn, gs, pn, ps)
				}
				got, want = evs[at:at+gn], evs[at:at+pn]
				gotSys, wantSys = gs, ps
			case 3:
				got, gotSys = rawScan(gc[i], budget)
				want, wantSys = rawScan(pc[i], budget)
			}
			if !slices.Equal(got, want) || gotSys != wantSys {
				t.Fatalf("step %d, cursor %d at event %d, budget %d: growing read %d events (syscall %v), drained %d (%v)",
					step, i, at, budget, len(got), gotSys, len(want), wantSys)
			}
			// The events the list says: the budget, or through the next
			// syscall, or to the end, whichever is first; Next reads one
			// and Batch+Skip the k it chose.
			if len(got) > len(evs)-at || !slices.Equal(got, evs[at:at+len(got)]) {
				t.Fatalf("step %d, cursor %d: read %d events from event %d that are not the source's", step, i, len(got), at)
			}
			if op >= 2 {
				n, sys := min(budget, len(evs)-at), false
				if s := slices.IndexFunc(evs[at:at+n], func(e Event) bool { return e.Syscall }); s >= 0 {
					n, sys = s+1, true
				}
				if len(got) != n || gotSys != sys {
					t.Fatalf("step %d, cursor %d at event %d: scan of %d read %d events (syscall %v), want %d (%v)",
						step, i, at, budget, len(got), gotSys, n, sys)
				}
			}
			pos[i] = at + len(got)
			furthest = max(furthest, pos[i])
			if gc[i].ev != pos[i] || pc[i].ev != pos[i] {
				t.Fatalf("step %d, cursor %d: at events %d and %d, want %d", step, i, gc[i].ev, pc[i].ev, pos[i])
			}
			if g.Len() > furthest+chunkWords {
				t.Fatalf("step %d: recorded %d events with none read past %d", step, g.Len(), furthest)
			}
			// A growing recording learns that its source failed only
			// when a read goes past the last event; the drained one
			// knows it from the start.
			for k := range gc {
				gerr, perr := gc[k].Err(), pc[k].Err()
				atEnd := pos[k] == len(evs)
				if !atEnd && (gerr != nil || perr != nil) || atEnd && fail != (perr != nil) ||
					gerr != nil && !errors.Is(gerr, errFuzzSource) {
					t.Fatalf("step %d, cursor %d at event %d of %d: Err = %v, drained %v", step, k, pos[k], len(evs), gerr, perr)
				}
			}
		}
		for i := range gc {
			var ev Event
			if gc[i].Next(&ev) || len(gc[i].Batch(1)) != 0 {
				t.Fatalf("cursor %d not exhausted after %d events", i, len(evs))
			}
			if n, _ := gc[i].SkipScan(1); n != 0 {
				t.Fatalf("cursor %d skipped past the end", i)
			}
			if err := gc[i].Err(); fail != (err != nil) || err != nil && !errors.Is(err, errFuzzSource) {
				t.Fatalf("cursor %d exhausted with Err = %v (source failing: %v)", i, err, fail)
			}
		}
		gch, pch := sealed(g), sealed(p)
		if g.Len() != len(evs) || p.Len() != len(evs) || g.Bytes() != p.Bytes() || len(gch) != len(pch) {
			t.Fatalf("grown to %d events, %d bytes, %d chunks; drained %d, %d, %d; want %d events",
				g.Len(), g.Bytes(), len(gch), p.Len(), p.Bytes(), len(pch), len(evs))
		}
		for k := range gch {
			a, b := gch[k], pch[k]
			if a.ev0 != b.ev0 || a.n != b.n || !slices.Equal(a.words, b.words) || !slices.Equal(a.sys, b.sys) || cap(a.words) != cap(b.words) {
				t.Fatalf("chunk %d: grown %d+%d events in %d/%d words, drained %d+%d in %d/%d",
					k, a.ev0, a.n, len(a.words), cap(a.words), b.ev0, b.n, len(b.words), cap(b.words))
			}
		}
	})
}

// TestConcurrentCursorsGrowOneRecording reads one growing recording
// from four goroutines at once, each through a different reader (Next,
// Batch with Skip, SkipScan, raw scans), so under -race each chunk is
// recorded by whichever goroutine gets there first while the others
// read the chunks before it. Every reader must see the drained
// recording's events, and the recording must end with its chunks.
func TestConcurrentCursorsGrowOneRecording(t *testing.T) {
	evs := skipScanEvents(t)
	for len(evs) < 40_000 {
		evs = append(evs, evs[:min(len(evs), 40_000-len(evs))]...)
	}
	p := Pack(NewMemTrace(evs))
	g := Record(NewMemTrace(evs))
	read := []func(c *Cursor) []Event{
		func(c *Cursor) (got []Event) {
			var ev Event
			for c.Next(&ev) {
				got = append(got, ev)
			}
			return got
		},
		func(c *Cursor) (got []Event) {
			for b := c.Batch(777); len(b) > 0; b = c.Batch(777) {
				got = append(got, b[:len(b)/2+1]...)
				c.Skip(len(b)/2 + 1)
			}
			return got
		},
		func(c *Cursor) (got []Event) {
			for at := 0; ; {
				n, _ := c.SkipScan(3_001)
				if n == 0 {
					return got
				}
				got = append(got, evs[at:at+n]...)
				at += n
			}
		},
		func(c *Cursor) (got []Event) {
			for {
				b, _ := rawScan(c, 2_500)
				if len(b) == 0 {
					return got
				}
				got = append(got, b...)
			}
		},
	}
	got := make([][]Event, len(read))
	var wg sync.WaitGroup
	for i, r := range read {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r(g.NewCursor())
		}()
	}
	wg.Wait()
	for i := range read {
		if !slices.Equal(got[i], evs) {
			t.Errorf("reader %d saw %d events of %d, or saw them wrong", i, len(got[i]), len(evs))
		}
	}
	gch, pch := sealed(g), sealed(p)
	if len(gch) != len(pch) || g.Bytes() != p.Bytes() {
		t.Fatalf("grown to %d chunks, %d bytes; drained %d, %d", len(gch), g.Bytes(), len(pch), p.Bytes())
	}
	for k := range gch {
		if !slices.Equal(gch[k].words, pch[k].words) {
			t.Fatalf("chunk %d differs from the drained recording's", k)
		}
	}
}

// TestSourcePanicEndsRecording pins what a source that panics leaves
// behind: the reader that drove it gets the panic, and the recording
// ends, failed, at its last sealed event, so no later reader resumes the
// source past the events the unsealed chunk held. The source panics
// once and would go on after it, so a resumed recording would skip
// those events.
func TestSourcePanicEndsRecording(t *testing.T) {
	const at = 10_000 // into the third chunk of one-word events
	n, panicked := 0, false
	r := Record(FuncStream(func(ev *Event) bool {
		if n == at && !panicked {
			panicked = true
			panic("emulator bug")
		}
		*ev = Event{PC: 4 * uint32(n)}
		n++
		return true
	}))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the source's panic did not reach the reader that drove it")
			}
		}()
		var ev Event
		for c := r.NewCursor(); c.Next(&ev); {
		}
	}()
	c := r.NewCursor()
	var ev Event
	k := 0
	for ; c.Next(&ev); k++ {
		if ev.PC != 4*uint32(k) {
			t.Fatalf("event %d has PC %#x after the panic, want %#x", k, ev.PC, 4*k)
		}
	}
	if k != r.Len() || k == 0 || k >= at || c.Err() == nil || n != at {
		t.Fatalf("after the panic a reader saw %d events of %d recorded (the source made %d), Err %v; want every sealed event, fewer than %d, then a failure",
			k, r.Len(), n, c.Err(), at)
	}
}
