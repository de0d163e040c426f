package trace

import "slices"

// Recorded is an immutable, compactly packed recording of a finite
// event stream — the in-memory equivalent of a pixie trace tape that
// many cache configurations replay concurrently. It exists for the
// innermost loop of a sweep: a packed suite is roughly half the size of
// the equivalent []Event, so more of a multi-million-instruction
// recording stays in cache while a worker pool replays it. Every
// reader that needs an event's fields gets them from DecodeAt, the
// format's one decoder.
//
// The encoding is a stream of uint32 words. Instruction PCs are word
// aligned on the target (MIPS-I), so the two low bits of the leading
// word carry a tag:
//
//	00  plain instruction: PC only (no data ref, stall, or syscall)
//	01  PC + meta word (stall/syscall, but no data reference)
//	10  PC + meta word + data word (loads and stores)
//	11  escape for an unaligned PC: meta, data, then the full PC word
//
// The meta word packs Kind (bits 0-7), Size (8-15), Stall (16-23) and
// Syscall (bit 24). Every Event round-trips exactly; the tags only
// shorten the common cases (a plain instruction is 4 bytes instead of
// 12).
//
// A Recorded is append-only while packing and immutable afterwards:
// any number of Cursors may replay it concurrently.
type Recorded struct {
	words []uint32
	n     int
	// blockWord[i] is the offset in words of event i*skipIndexBlock,
	// and sysEv lists the event indices whose Syscall flag is set, in
	// ascending order. Both are maintained by Append (appending is the
	// only mutation a Recorded ever sees), and together they let
	// SkipScan jump a fast-forward span in O(log syscalls) with at
	// most skipIndexBlock words walked, instead of touching every
	// event's words.
	blockWord []int
	sysEv     []int
}

// skipIndexBlock is the event stride of the packed skip index.
const skipIndexBlock = 4096

// decodeSlack is how many words of capacity a Recorded keeps past its
// last word: an event spans at most four words, so DecodeAt can load
// all four from any event's first word.
const decodeSlack = 3

// Event tags (low two bits of the leading word). Exported, with the
// meta-word layout below, for scanners that step straight off RawWords
// through DecodeAt (the exact and functional-warming scans in
// internal/core); everything else should consume events through
// Next/Batch.
const (
	TagMask  = 3
	TagPlain = 0 // PC word only
	TagMeta  = 1 // PC word + meta
	TagData  = 2 // PC word + meta + data
	TagRaw   = 3 // tag word + meta + data + full unaligned PC
)

// Meta word layout.
const (
	MetaKindShift  = 0
	MetaSizeShift  = 8
	MetaStallShift = 16
	MetaSyscallBit = 1 << 24
)

// Pack drains s into a new packed recording.
func Pack(s Stream) *Recorded {
	r := &Recorded{}
	var ev Event
	for s.Next(&ev) {
		r.Append(&ev)
	}
	return r
}

// Append adds one event to the end of the recording.
func (r *Recorded) Append(ev *Event) {
	if r.n%skipIndexBlock == 0 {
		r.blockWord = append(r.blockWord, len(r.words))
	}
	if ev.Syscall {
		r.sysEv = append(r.sysEv, r.n)
	}
	meta := uint32(ev.Kind)<<MetaKindShift |
		uint32(ev.Size)<<MetaSizeShift |
		uint32(ev.Stall)<<MetaStallShift
	if ev.Syscall {
		meta |= MetaSyscallBit
	}
	switch {
	case ev.PC&3 != 0:
		r.words = append(r.words, TagRaw, meta, ev.Data, ev.PC)
	case meta == 0 && ev.Data == 0:
		r.words = append(r.words, ev.PC|TagPlain)
	case ev.Data == 0:
		r.words = append(r.words, ev.PC|TagMeta, meta)
	default:
		r.words = append(r.words, ev.PC|TagData, meta, ev.Data)
	}
	if cap(r.words)-len(r.words) < decodeSlack {
		// Guarded: storing the slice header on every call costs a
		// write barrier per event while a collection runs.
		r.words = slices.Grow(r.words, decodeSlack)
	}
	r.n++
}

// Len returns the number of recorded events.
func (r *Recorded) Len() int { return r.n }

// Bytes returns the packed size of the recording in bytes.
func (r *Recorded) Bytes() int { return len(r.words) * 4 }

// DecodeAt decodes the event whose first word is words[w]: its PC, its
// meta word (zero for a plain instruction; see the Meta* layout) and its
// data address (zero when the event carries no data word), plus the
// index of the next event's first word. It is the packed format's only
// decoder; every replay path, from Next and Batch to the scanners over
// RawWords, goes through it. w must be the first word of an event.
//
// DecodeAt loads all four words an event can span and selects among
// them by tag without branching, because a mixed stream of plain, meta
// and data events defeats the branch predictor. The words past a short
// event may lie beyond len(words), so words must be a recording's word
// stream as Cursor.RawWords returns it: a Recorded keeps decodeSlack
// words of capacity past its last word, and whatever they hold is
// discarded.
func DecodeAt(words []uint32, w int) (pc, meta, data uint32, next int) {
	ev := words[w : w+4 : w+4]
	w0, raw := ev[0], ev[3]
	tag := w0 & TagMask
	pc, meta, data = w0&^TagMask, ev[1], ev[2]
	if tag == TagPlain {
		meta = 0
	}
	if tag < TagData {
		data = 0
	}
	if tag == TagRaw {
		pc = raw
	}
	return pc, meta, data, w + int(tag) + 1
}

// setEvent stores the event that DecodeAt's fields describe into *ev,
// field by field: assembling an Event in a temporary and copying it
// costs a store-forwarding stall per event on the replay hot path.
func setEvent(ev *Event, pc, meta, data uint32) {
	ev.PC = pc
	ev.Data = data
	ev.Kind = Kind(meta >> MetaKindShift)
	ev.Size = uint8(meta >> MetaSizeShift)
	ev.Stall = uint8(meta >> MetaStallShift)
	ev.Syscall = meta&MetaSyscallBit != 0
}

// NewCursor returns a replay cursor positioned at the first event. Each
// cursor is independent; the recording itself is never mutated by
// replay, so cursors over one Recorded are safe to drive from
// different goroutines (one goroutine per cursor).
func (r *Recorded) NewCursor() *Cursor { return &Cursor{r: r} }

// cursorBatchMax bounds a cursor's decode buffer (events).
const cursorBatchMax = 4096

// Cursor replays a packed recording from one position: the word index
// of its next event. Next decodes that event and moves past it. Batch
// decodes a run of upcoming events into a buffer without moving, and
// Skip then moves past as many of them as the consumer used, by walking
// their tags. The scanners over RawWords (SkipScan, and the exact,
// warming and screening scans) start at the same position, so any mix
// of calls consumes every event exactly once and in order.
type Cursor struct {
	r   *Recorded
	w   int     // word index of the next event
	wEv int     // event index of the next event
	buf []Event // Batch's decode buffer
}

// Next implements Stream.
func (c *Cursor) Next(ev *Event) bool {
	if c.w >= len(c.r.words) {
		return false
	}
	pc, meta, data, next := DecodeAt(c.r.words, c.w)
	setEvent(ev, pc, meta, data)
	c.w = next
	c.wEv++
	return true
}

// Batch implements BatchStream: it decodes up to max upcoming events
// (at most cursorBatchMax) without consuming them. The result is empty
// exactly when the cursor is exhausted and stays valid until the next
// Batch call.
func (c *Cursor) Batch(max int) []Event {
	max = min(max, cursorBatchMax)
	if max <= 0 {
		return nil
	}
	if cap(c.buf) < max {
		c.buf = make([]Event, max)
	}
	// Decode straight into the pre-sized buffer slots (no append), with
	// the word stream held in locals.
	buf := c.buf[:max]
	words := c.r.words
	w, n := c.w, 0
	for n < len(buf) && w < len(words) {
		pc, meta, data, next := DecodeAt(words, w)
		setEvent(&buf[n], pc, meta, data)
		w = next
		n++
	}
	return buf[:n]
}

// Skip implements BatchStream: it consumes n events, which must not
// exceed the length of the last Batch result, by walking their tags.
func (c *Cursor) Skip(n int) {
	words, w := c.r.words, c.w
	for i := 0; i < n; i++ {
		w += int(words[w]&TagMask) + 1 // the tag is the event's length - 1
	}
	c.w = w
	c.wEv += n
}

// RawWords exposes the packed word stream and the index of the
// cursor's next event, for scanners that step events in place with
// DecodeAt instead of materializing them. The scanner must report its
// progress with RawAdvance before any other cursor call.
func (c *Cursor) RawWords() (words []uint32, w int) { return c.r.words, c.w }

// RawAdvance commits a raw scan: the cursor's next event starts at word
// w, and n events are accounted as consumed. w and n must describe a
// walk from the RawWords position over exactly n events.
func (c *Cursor) RawAdvance(w, n int) {
	c.w = w
	c.wEv += n
}
