package trace

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Recorded is a compactly packed recording of a finite event stream —
// the in-memory equivalent of a pixie trace tape that many cache
// configurations replay concurrently. It exists for the innermost loop
// of a sweep: a packed suite is roughly half the size of the equivalent
// []Event, so more of a multi-million-instruction recording stays in
// cache while a worker pool replays it. Every reader that needs an
// event's fields gets them from DecodeAt, the format's one decoder.
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
// A recording grows on demand, as the paper's pipe multiplexor produced
// trace events while the simulator consumed them: Record wraps a live
// source and encodes nothing up front. The words live in an
// append-only list of sealed chunks. When a cursor has consumed the
// last sealed chunk and the source has not ended, the cursor's own
// goroutine encodes the next chunk under the recording's lock. A
// sealed chunk is never written again, so any number of Cursors replay
// one recording concurrently, and a process holds only the prefix its
// runs have read. When the source ends it is dropped and the last chunk
// is trimmed to size; a source that fails latches its error on the
// recording, and a cursor that reaches that point reports it through
// Err. Pack is Record drained in full.
type Recorded struct {
	root chunk // holds no events; its next is the first sealed chunk

	// mu serializes growth. It is held while the source produces a
	// chunk's events, so a cursor that needs that chunk waits for it,
	// while cursors behind it read sealed chunks without a lock.
	mu   sync.Mutex
	src  Stream // the live source; nil once it has ended
	last *chunk // the last sealed chunk; nil before the first
	err  error  // the source's failure, set before done

	done  atomic.Bool  // the source has ended: no chunk follows the last
	n     atomic.Int64 // events sealed so far
	words atomic.Int64 // words sealed so far
}

// chunk is one sealed run of a recording's events. words holds their
// encoding with at least decodeSlack words of capacity past its end,
// and sys lists the recording-wide indices of its syscall events in
// ascending order, so SkipScan jumps a chunk with no syscall in the
// scan's way without touching its words. Nothing in a chunk changes
// after its predecessor's next publishes it.
type chunk struct {
	words []uint32
	ev0   int // index of the chunk's first event in the recording
	n     int // events in the chunk
	sys   []int
	next  atomic.Pointer[chunk]
}

// end returns the index one past the chunk's last event.
func (ch *chunk) end() int { return ch.ev0 + ch.n }

// nextSyscall returns the first syscall event index in ch at or after
// from, or -1 if there is none.
func (ch *chunk) nextSyscall(from int) int {
	i, _ := slices.BinarySearch(ch.sys, from)
	if i == len(ch.sys) {
		return -1
	}
	return ch.sys[i]
}

// eventWords is the most words one event encodes to (the raw escape).
const eventWords = 4

// decodeSlack is how many words of capacity a chunk keeps past its
// last word: an event spans at most eventWords words, so DecodeAt can
// load all of them from any event's first word.
const decodeSlack = eventWords - 1

// chunkWords is the capacity of a chunk's word stream: 16 KB, which is
// an allocation size class, so a full chunk wastes no memory. A chunk
// is sealed once one more event might leave it less than decodeSlack
// spare words, so it holds 4,090 words or more: from about 1,000 raw
// escapes to about 4,000 plain instructions. That spreads the cost of
// sealing a chunk over a thousand events or more, and a run that stops
// anywhere in a chunk has recorded less than 16 KB past its stop.
const chunkWords = 1 << 12

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

// Record returns a recording of s that grows on demand: it encodes s's
// events only as its cursors reach them, a chunk at a time, and drops s
// once s ends. Len and Bytes count what has been recorded so far.
func Record(s Stream) *Recorded { return &Recorded{src: s} }

// Pack drains s into a new recording: Record(s), grown to the end of s.
func Pack(s Stream) *Recorded {
	r := Record(s)
	r.mu.Lock()
	for r.src != nil {
		r.record()
	}
	r.mu.Unlock()
	return r
}

// record encodes the source's next events into one new chunk and seals
// it after the last. When the source ends, it is dropped, its failure
// latched, and the chunk trimmed to its words plus decodeSlack. A
// source that panics is dropped too, and the recording ends, failed, at
// its last sealed event; the panic goes on to the reader that drove it.
// The caller holds r.mu, and r.src is not nil.
func (r *Recorded) record() {
	last := r.last
	if last == nil {
		last = &r.root
	}
	ch := &chunk{words: make([]uint32, 0, chunkWords), ev0: last.end()}
	sealed := false
	defer func() {
		if !sealed {
			// The source panicked: end the recording, failed, at its
			// last sealed event, so that no later reader resumes the
			// source past the events the unsealed chunk held.
			r.src, r.err = nil, fmt.Errorf("trace: stream panicked after %d events", ch.ev0)
			r.done.Store(true)
		}
	}()
	var ev Event
	ended := false
	for cap(ch.words)-len(ch.words) >= eventWords+decodeSlack {
		if !r.src.Next(&ev) {
			ended = true
			break
		}
		if ev.Syscall {
			ch.sys = append(ch.sys, ch.ev0+ch.n)
		}
		ch.words = appendEvent(ch.words, &ev)
		ch.n++
	}
	if ended {
		if err := StreamErr(r.src); err != nil {
			r.err = fmt.Errorf("trace: stream failed after %d events: %w", ch.end(), err)
		}
		r.src = nil
		ch.words = append(make([]uint32, 0, len(ch.words)+decodeSlack), ch.words...)
	}
	if ch.n > 0 {
		r.n.Add(int64(ch.n))
		r.words.Add(int64(len(ch.words)))
		r.last = ch
		last.next.Store(ch)
	}
	if ended {
		r.done.Store(true)
	}
	sealed = true
}

// after returns the chunk that follows ch, recording it first if no
// cursor has reached it yet, or nil at the end of the recording.
func (r *Recorded) after(ch *chunk) *chunk {
	if next := ch.next.Load(); next != nil || r.done.Load() {
		return ch.next.Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for ch.next.Load() == nil && r.src != nil {
		r.record()
	}
	return ch.next.Load()
}

// appendEvent appends ev's encoding to words. It is the packed format's
// only encoder, as DecodeAt is its only decoder.
func appendEvent(words []uint32, ev *Event) []uint32 {
	meta := uint32(ev.Kind)<<MetaKindShift |
		uint32(ev.Size)<<MetaSizeShift |
		uint32(ev.Stall)<<MetaStallShift
	if ev.Syscall {
		meta |= MetaSyscallBit
	}
	switch {
	case ev.PC&3 != 0:
		return append(words, TagRaw, meta, ev.Data, ev.PC)
	case meta == 0 && ev.Data == 0:
		return append(words, ev.PC|TagPlain)
	case ev.Data == 0:
		return append(words, ev.PC|TagMeta, meta)
	default:
		return append(words, ev.PC|TagData, meta, ev.Data)
	}
}

// Len returns the number of events recorded so far: every event of the
// source once it has ended, as it has for Pack's recordings.
func (r *Recorded) Len() int { return int(r.n.Load()) }

// Bytes returns the packed size of the events recorded so far.
func (r *Recorded) Bytes() int { return int(r.words.Load()) * 4 }

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
// event may lie beyond len(words), so words must be a chunk's word
// stream as Cursor.RawWords returns it: a chunk keeps decodeSlack words
// of capacity past its last word, and whatever they hold is discarded.
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
// cursor is independent, and replay never changes a sealed chunk, so
// cursors over one Recorded are safe to drive from different goroutines
// (one goroutine per cursor).
func (r *Recorded) NewCursor() *Cursor { return &Cursor{r: r, ch: &r.root} }

// cursorBatchMax bounds a cursor's decode buffer (events).
const cursorBatchMax = 4096

// Cursor replays a packed recording from one position: a chunk and the
// word index in it of its next event. Next decodes that event and moves
// past it. Batch decodes a run of upcoming events into a buffer without
// moving, and Skip then moves past as many of them as the consumer
// used, by walking their tags. The scanners over RawWords (SkipScan,
// and the exact, warming and screening scans) start at the same
// position, so any mix of calls consumes every event exactly once and
// in order. Every call crosses chunk boundaries as a whole recording
// would, recording the next chunk when it is the first reader there,
// and a cursor moves into a chunk only to read from it: one that has
// consumed a chunk's last event sits at that chunk's end.
type Cursor struct {
	r     *Recorded
	ch    *chunk   // the chunk of the next event, or the one just consumed
	words []uint32 // ch.words
	w     int      // word index in words of the next event
	ev    int      // event index in the recording of the next event
	buf   []Event  // Batch's decode buffer
}

// advance moves a cursor at the end of its chunk to the start of the
// next, recording it first if need be, and reports false, leaving the
// cursor in place, at the end of the recording.
func (c *Cursor) advance() bool {
	next := c.r.after(c.ch)
	if next == nil {
		return false
	}
	c.ch, c.words, c.w = next, next.words, 0
	return true
}

// Err implements the failing-stream half of Stream: it reports the
// recorded source's failure once the cursor has consumed every event
// the source produced before failing, and nil otherwise, so it reads
// nil at a clean end and before a run reaches the failure.
func (c *Cursor) Err() error {
	if c.w < len(c.words) || !c.r.done.Load() || c.ch.next.Load() != nil {
		return nil
	}
	return c.r.err
}

// Next implements Stream.
func (c *Cursor) Next(ev *Event) bool {
	if c.w >= len(c.words) && !c.advance() {
		return false
	}
	pc, meta, data, next := DecodeAt(c.words, c.w)
	setEvent(ev, pc, meta, data)
	c.w = next
	c.ev++
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
	ch, words, w, n := c.ch, c.words, c.w, 0
	for {
		for n < len(buf) && w < len(words) {
			pc, meta, data, next := DecodeAt(words, w)
			setEvent(&buf[n], pc, meta, data)
			w = next
			n++
		}
		if n == len(buf) {
			break
		}
		if ch = c.r.after(ch); ch == nil {
			break
		}
		words, w = ch.words, 0
	}
	return buf[:n]
}

// Skip implements BatchStream: it consumes n events, which must not
// exceed the length of the last Batch result, by walking their tags.
func (c *Cursor) Skip(n int) {
	for n > 0 && (c.w < len(c.words) || c.advance()) {
		k := min(n, c.ch.end()-c.ev)
		words, w := c.words, c.w
		for i := 0; i < k; i++ {
			w += int(words[w]&TagMask) + 1 // the tag is the event's length - 1
		}
		c.w, c.ev, n = w, c.ev+k, n-k
	}
}

// RawWords exposes the word stream of the chunk holding the cursor's
// next event, and that event's index in it, for scanners that step
// events in place with DecodeAt instead of materializing them. A
// scanner walks at most to the end of those words, reports its progress
// with RawAdvance before any other cursor call, and calls RawWords again
// to go on into the next chunk: w == len(words) means the recording is
// exhausted. Scanners run to their own stops across chunk ends, so a
// scan consumes the same events however the recording is chunked.
func (c *Cursor) RawWords() (words []uint32, w int) {
	if c.w >= len(c.words) {
		c.advance()
	}
	return c.words, c.w
}

// RawAdvance commits a raw scan: the cursor's next event starts at word
// w of the words RawWords last returned, and n events are accounted as
// consumed. w and n must describe a walk from the RawWords position
// over exactly n events.
func (c *Cursor) RawAdvance(w, n int) {
	c.w = w
	c.ev += n
}
