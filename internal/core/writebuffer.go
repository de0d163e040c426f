package core

import "fmt"

// wbEntry is one pending write: addr/words describe the L2-D write, enq
// is the cycle it entered the buffer, and complete is its lazily
// computed drain-completion cycle (0 = not yet computed; a computed
// completion is always positive because service takes at least a cycle).
type wbEntry struct {
	addr     uint64
	words    int
	enq      uint64
	complete uint64
}

// serviceFunc performs the L2-D write for one buffer entry beginning at
// cycle start and returns the cycles it occupies, including any
// main-memory penalty when the write misses L2. It is called exactly
// once per entry, in FIFO order.
type serviceFunc func(addr uint64, words int, start uint64) uint64

// writeBuffer models the MMU/WB-chip write buffer: a FIFO whose head
// drains into the secondary data cache. Consecutive drains overlap up to
// `overlap` cycles of the L2 latency (the paper: "a stream of writes may
// overlap one or both cycles of latency"). Completion times are computed
// lazily so the L2 state is probed in drain order.
//
// The FIFO is a fixed ring of capacity slots: entry i (0 = oldest) lives
// in slot (head+i) mod capacity, so retiring the head moves no data.
type writeBuffer struct {
	ring    []wbEntry // capacity slots
	head    int       // slot of the oldest entry
	n       int       // entries queued
	overlap uint64
	last    uint64 // completion cycle of the most recently drained entry
	service serviceFunc
}

func newWriteBuffer(capacity int, overlap uint64, service serviceFunc) *writeBuffer {
	return &writeBuffer{ring: make([]wbEntry, capacity), overlap: overlap, service: service}
}

func (wb *writeBuffer) len() int   { return wb.n }
func (wb *writeBuffer) full() bool { return wb.n >= len(wb.ring) }

// at returns queue entry i, counted from the oldest (0 <= i < len).
func (wb *writeBuffer) at(i int) *wbEntry {
	i += wb.head
	if i >= len(wb.ring) {
		i -= len(wb.ring)
	}
	return &wb.ring[i]
}

// push appends an entry. The caller must have ensured a free slot;
// pushing into a full buffer returns ErrWriteBufferOverflow without
// modifying the queue.
func (wb *writeBuffer) push(addr uint64, words int, enq uint64) error {
	if wb.full() {
		return fmt.Errorf("%w: %d/%d entries at cycle %d, addr %#x",
			ErrWriteBufferOverflow, wb.n, len(wb.ring), enq, addr)
	}
	wb.n++
	*wb.at(wb.n - 1) = wbEntry{addr: addr, words: words, enq: enq}
	return nil
}

// ensureComplete computes completion times for entries [0, i].
func (wb *writeBuffer) ensureComplete(i int) {
	prev := wb.last
	for j := 0; j <= i; j++ {
		e := wb.at(j)
		if e.complete == 0 {
			start := e.enq
			if prev > wb.overlap && prev-wb.overlap > start {
				start = prev - wb.overlap
			}
			e.complete = start + wb.service(e.addr, e.words, start)
		}
		prev = e.complete
	}
}

// headComplete returns the completion cycle of the oldest entry. The
// buffer must be nonempty.
func (wb *writeBuffer) headComplete() uint64 {
	wb.ensureComplete(0)
	return wb.ring[wb.head].complete
}

// emptyCompletion returns the cycle at which the buffer will be empty:
// the completion of the youngest entry, or now for an empty buffer.
func (wb *writeBuffer) emptyCompletion(now uint64) uint64 {
	if wb.n == 0 {
		return now
	}
	wb.ensureComplete(wb.n - 1)
	t := wb.at(wb.n - 1).complete
	if t < now {
		return now
	}
	return t
}

// popCompleted retires every entry whose drain has completed by now.
// It runs after every simulated instruction, so the common case — an
// empty buffer, or a head whose completion is already computed and
// still in the future — returns from an inlined guard; only the drain
// loop (retire) probes L2, lazily and in drain order.
func (wb *writeBuffer) popCompleted(now uint64) {
	if wb.n == 0 || wb.ring[wb.head].complete > now {
		return
	}
	wb.retire(now)
}

// retire is popCompleted's drain loop: it pops the head while its
// drain has completed by now. A head whose completion is still unknown
// is computed only if it could plausibly be done (its enqueue time has
// passed).
func (wb *writeBuffer) retire(now uint64) {
	for wb.n > 0 {
		e := &wb.ring[wb.head]
		if e.complete == 0 {
			if e.enq > now {
				return
			}
			wb.ensureComplete(0)
		}
		if e.complete > now {
			return
		}
		wb.last = e.complete
		if wb.head++; wb.head == len(wb.ring) {
			wb.head = 0
		}
		wb.n--
	}
}

// popAll retires every entry unconditionally (after a wait-for-empty or
// flush stall has elapsed).
func (wb *writeBuffer) popAll() {
	if wb.n == 0 {
		return
	}
	wb.ensureComplete(wb.n - 1)
	wb.last = wb.at(wb.n - 1).complete
	wb.head, wb.n = 0, 0
}

// matchCompletion scans for entries that fall within the cache line
// containing addr (granularity 1<<offBits bytes). It returns the
// completion time of the youngest matching entry — the point by which
// every matching write has reached L2 — or found=false.
func (wb *writeBuffer) matchCompletion(addr uint64, offBits uint) (completion uint64, found bool) {
	line := addr >> offBits
	match := -1
	for i := 0; i < wb.n; i++ {
		if wb.at(i).addr>>offBits == line {
			match = i
		}
	}
	if match < 0 {
		return 0, false
	}
	wb.ensureComplete(match)
	return wb.at(match).complete, true
}
