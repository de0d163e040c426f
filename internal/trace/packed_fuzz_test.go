package trace

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// fuzzRecordBytes is the size of one event in FuzzPackedRoundTrip's
// input: PC (4 bytes), data (4), kind, size, stall, flags.
const fuzzRecordBytes = 12

// maxFuzzEvents caps one input's event count: enough events to fill
// three chunks even when every event is a one-word plain instruction,
// so a long input crosses chunk joins and SkipScan's chunk jumps land
// inside a later chunk.
const maxFuzzEvents = 3 * chunkWords

// Flag bits of a fuzz record's last byte.
const (
	fuzzZeroData  = 1 << 0 // clear the data word
	fuzzZeroMeta  = 1 << 1 // clear kind, size and stall
	fuzzSyscall   = 1 << 2 // set the syscall flag
	fuzzAlignedPC = 1 << 3 // clear the PC's two low bits
)

// fuzzEvents turns fuzz bytes into events. The first byte is a repeat
// count (its value plus one) for the pattern the remaining 12-byte
// records describe, so a short input can still span several chunks.
// Any PC (aligned or not), any Kind, Size and Stall byte, the syscall
// flag, and zero or non-zero data can appear.
func fuzzEvents(data []byte) []Event {
	if len(data) < 1+fuzzRecordBytes {
		return nil
	}
	reps := 1 + int(data[0])
	var pattern []Event
	for rec := data[1:]; len(rec) >= fuzzRecordBytes; rec = rec[fuzzRecordBytes:] {
		ev := Event{
			PC:    binary.LittleEndian.Uint32(rec[0:4]),
			Data:  binary.LittleEndian.Uint32(rec[4:8]),
			Kind:  Kind(rec[8]),
			Size:  rec[9],
			Stall: rec[10],
		}
		flags := rec[11]
		if flags&fuzzZeroData != 0 {
			ev.Data = 0
		}
		if flags&fuzzZeroMeta != 0 {
			ev.Kind, ev.Size, ev.Stall = 0, 0, 0
		}
		ev.Syscall = flags&fuzzSyscall != 0
		if flags&fuzzAlignedPC != 0 {
			ev.PC &^= 3
		}
		pattern = append(pattern, ev)
	}
	var evs []Event
	for r := 0; r < reps && len(evs) < maxFuzzEvents; r++ {
		evs = append(evs, pattern[:min(len(pattern), maxFuzzEvents-len(evs))]...)
	}
	return evs
}

// fuzzInput encodes events as a FuzzPackedRoundTrip input, with the
// flags that reproduce each event exactly.
func fuzzInput(reps byte, evs []Event) []byte {
	out := []byte{reps}
	for _, ev := range evs {
		var rec [fuzzRecordBytes]byte
		binary.LittleEndian.PutUint32(rec[0:4], ev.PC)
		binary.LittleEndian.PutUint32(rec[4:8], ev.Data)
		rec[8], rec[9], rec[10] = byte(ev.Kind), ev.Size, ev.Stall
		if ev.Syscall {
			rec[11] |= fuzzSyscall
		}
		out = append(out, rec[:]...)
	}
	return out
}

// FuzzPackedRoundTrip packs arbitrary events and requires every way of
// reading the packed words back to reproduce them: Next, Batch and Skip
// in random sizes (partial skips included), and a DecodeAt walk over
// each chunk's words. One cursor driven through a random interleaving
// of all of them, SkipScan and a RawWords scan must consume every event
// once, in order, and sit on that walk's word offsets after each step.
// SkipScan from every event position must then land on the word offset
// that walk found for the event it stops before.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(fuzzInput(0, fuzzSeedEvents))
	f.Add(fuzzInput(0, packedSamples()))
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
	f.Add(fuzzInput(255, mixed)) // 5120 events, 7168 words: crosses a chunk join
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := fuzzEvents(data)
		r := Pack(NewMemTrace(evs))
		if r.Len() != len(evs) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(evs))
		}

		c := r.NewCursor()
		var ev Event
		for i := range evs {
			if !c.Next(&ev) || ev != evs[i] {
				t.Fatalf("Next event %d = %+v, want %+v", i, ev, evs[i])
			}
		}
		if c.Next(&ev) {
			t.Fatalf("Next past the end returned %+v", ev)
		}

		var seed int64
		for _, b := range data {
			seed = seed*31 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed)) //lint:allow determinism seeded from the fuzz input
		c = r.NewCursor()
		got := 0
		for {
			b := c.Batch(rng.Intn(2 * cursorBatchMax))
			if len(b) == 0 && got == len(evs) {
				break
			}
			for i, e := range b {
				if got+i >= len(evs) || e != evs[got+i] {
					t.Fatalf("Batch event %d = %+v, want %+v", got+i, e, evs[min(got+i, len(evs)-1)])
				}
			}
			k := rng.Intn(len(b) + 1)
			c.Skip(k)
			got += k
		}

		// offsets[i] is event i's first word, counting the words of the
		// chunks before its own.
		offsets := make([]int, 0, len(evs)+1)
		base := 0
		for _, ch := range sealed(r) {
			words := ch.words
			for w := 0; w < len(words); {
				i := len(offsets)
				if i >= len(evs) {
					t.Fatalf("DecodeAt walk found more than %d events", len(evs))
				}
				offsets = append(offsets, base+w)
				pc, meta, d, next := DecodeAt(words, w)
				var e Event
				setEvent(&e, pc, meta, d)
				if e != evs[i] {
					t.Fatalf("DecodeAt event %d at word %d = %+v, want %+v", i, base+w, e, evs[i])
				}
				w = next
			}
			base += len(words)
		}
		if len(offsets) != len(evs) {
			t.Fatalf("DecodeAt walk found %d events, want %d", len(offsets), len(evs))
		}
		offsets = append(offsets, base)

		// One cursor through a random interleaving of every way to
		// consume: each step must hand out the next events in order and
		// leave the cursor on the walk's offsets.
		c = r.NewCursor()
		for p := 0; p < len(evs); {
			var got []Event // the events this step consumed, when it reads them
			n := 0
			switch rng.Intn(4) {
			case 0:
				if !c.Next(&ev) {
					t.Fatalf("Next at event %d reported exhaustion", p)
				}
				got, n = append(got, ev), 1
			case 1:
				b := c.Batch(1 + rng.Intn(64))
				for i, e := range b {
					if p+i >= len(evs) || e != evs[p+i] {
						t.Fatalf("Batch at event %d: event %d = %+v", p, p+i, e)
					}
				}
				n = rng.Intn(len(b) + 1)
				got = b[:n]
				c.Skip(n)
			case 2:
				n, _ = c.SkipScan(1 + rng.Intn(64))
				if n == 0 {
					t.Fatalf("SkipScan at event %d consumed nothing", p)
				}
			case 3:
				words, w := c.RawWords()
				for k := 1 + rng.Intn(64); n < k && w < len(words); n++ {
					pc, meta, d, next := DecodeAt(words, w)
					var e Event
					setEvent(&e, pc, meta, d)
					got = append(got, e)
					w = next
				}
				c.RawAdvance(w, n)
			}
			for i, e := range got {
				if e != evs[p+i] {
					t.Fatalf("event %d came out as %+v, want %+v", p+i, e, evs[p+i])
				}
			}
			p += n
			if wordPos(c) != offsets[p] || c.ev != p {
				t.Fatalf("after a step to event %d: cursor at word %d, event %d; want word %d", p, wordPos(c), c.ev, offsets[p])
			}
		}
		if c.Next(&ev) || len(c.Batch(1)) != 0 {
			t.Fatalf("interleaved cursor not exhausted after %d events", len(evs))
		}

		// nextSys[p] is the first syscall event at or after p.
		nextSys := make([]int, len(evs)+1)
		nextSys[len(evs)] = len(evs)
		for p := len(evs) - 1; p >= 0; p-- {
			nextSys[p] = nextSys[p+1]
			if evs[p].Syscall {
				nextSys[p] = p
			}
		}
		c = r.NewCursor()
		for p := 0; p <= len(evs); p++ {
			if wordPos(c) != offsets[p] || c.ev != p {
				t.Fatalf("cursor at event %d: word %d, want %d", c.ev, wordPos(c), offsets[p])
			}
			max := 1 + rng.Intn(64)
			if p%97 == 0 {
				max = rng.Intn(maxFuzzEvents)
			}
			want, wantSys := min(max, len(evs)-p), false
			if s := nextSys[p]; s < len(evs) && s-p+1 <= want {
				want, wantSys = s-p+1, true
			}
			d := *c
			n, sys := d.SkipScan(max)
			if n != want || sys != wantSys || wordPos(&d) != offsets[p+n] || d.ev != p+n {
				t.Fatalf("SkipScan(%d) from event %d = (%d, %v) at word %d; want (%d, %v) at word %d",
					max, p, n, sys, wordPos(&d), want, wantSys, offsets[p+want])
			}
			if p < len(evs) {
				if n, _ := c.SkipScan(1); n != 1 {
					t.Fatalf("SkipScan(1) from event %d consumed %d", p, n)
				}
			}
		}
	})
}
