package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// constService returns a service function charging a fixed time and
// recording drain order.
func constService(cycles uint64, order *[]uint64) serviceFunc {
	return func(addr uint64, words int, start uint64) uint64 {
		if order != nil {
			*order = append(*order, addr)
		}
		return cycles
	}
}

func TestWBSingleEntryTiming(t *testing.T) {
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0x100, 1, 10)
	if got := wb.emptyCompletion(10); got != 16 {
		t.Fatalf("emptyCompletion = %d, want 16", got)
	}
}

func TestWBStreamOverlapsLatency(t *testing.T) {
	// Three back-to-back writes with a 6-cycle access and 2-cycle
	// overlap: completions at 6, 10, 14 — the stream rate is 4
	// cycles/entry after the first.
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0, 1, 0)
	wb.push(4, 1, 0)
	wb.push(8, 1, 0)
	wb.ensureComplete(2)
	want := []uint64{6, 10, 14}
	for i, w := range want {
		if wb.at(i).complete != w {
			t.Errorf("entry %d completes at %d, want %d", i, wb.at(i).complete, w)
		}
	}
}

func TestWBIdleEntryStartsAtEnqueue(t *testing.T) {
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0, 1, 0)
	wb.push(4, 1, 100) // long gap: no overlap benefit
	wb.ensureComplete(1)
	if wb.at(1).complete != 106 {
		t.Fatalf("idle entry completes at %d, want 106", wb.at(1).complete)
	}
}

func TestWBPopCompleted(t *testing.T) {
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0, 1, 0)
	wb.push(4, 1, 0)
	wb.popCompleted(6)
	if wb.len() != 1 {
		t.Fatalf("len after pop = %d, want 1", wb.len())
	}
	wb.popCompleted(9)
	if wb.len() != 1 {
		t.Fatalf("len = %d, want 1 (second entry completes at 10)", wb.len())
	}
	wb.popCompleted(10)
	if wb.len() != 0 {
		t.Fatalf("len = %d, want 0", wb.len())
	}
}

func TestWBPopCompletedSkipsFutureEnqueues(t *testing.T) {
	calls := 0
	wb := newWriteBuffer(4, 2, func(addr uint64, words int, start uint64) uint64 {
		calls++
		return 6
	})
	wb.push(0, 1, 50)
	wb.popCompleted(10) // entry not even enqueued yet at cycle 10
	if calls != 0 {
		t.Fatal("service called for a future entry")
	}
	if wb.len() != 1 {
		t.Fatal("future entry popped")
	}
}

func TestWBLastCompleteCarriesAcrossPops(t *testing.T) {
	// After draining a stream, a new entry enqueued before the previous
	// completion must still queue behind it.
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0, 1, 0) // completes at 6
	wb.ensureComplete(0)
	wb.popCompleted(6)
	wb.push(4, 1, 3) // enqueued while the first was still draining
	wb.ensureComplete(0)
	// start = max(3, 6-2) = 4, completes at 10.
	if wb.at(0).complete != 10 {
		t.Fatalf("completion = %d, want 10", wb.at(0).complete)
	}
}

func TestWBServiceCalledOncePerEntryInOrder(t *testing.T) {
	var order []uint64
	wb := newWriteBuffer(8, 2, constService(6, &order))
	for i := uint64(0); i < 4; i++ {
		wb.push(i*4, 1, 0)
	}
	wb.emptyCompletion(0)
	wb.emptyCompletion(0) // second call must not re-service
	if len(order) != 4 {
		t.Fatalf("service called %d times, want 4", len(order))
	}
	for i, a := range order {
		if a != uint64(i*4) {
			t.Fatalf("drain order %v not FIFO", order)
		}
	}
}

func TestWBEmptyCompletionOnEmptyBuffer(t *testing.T) {
	wb := newWriteBuffer(4, 2, constService(6, nil))
	if got := wb.emptyCompletion(42); got != 42 {
		t.Fatalf("emptyCompletion on empty = %d, want now (42)", got)
	}
}

func TestWBFullAndOverflowError(t *testing.T) {
	wb := newWriteBuffer(2, 2, constService(6, nil))
	if err := wb.push(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if wb.full() {
		t.Fatal("buffer full after one of two entries")
	}
	if err := wb.push(4, 1, 0); err != nil {
		t.Fatal(err)
	}
	if !wb.full() {
		t.Fatal("buffer not full at capacity")
	}
	if err := wb.push(8, 1, 0); !errors.Is(err, ErrWriteBufferOverflow) {
		t.Fatalf("push past capacity = %v, want ErrWriteBufferOverflow", err)
	}
	if wb.len() != 2 {
		t.Fatalf("failed push mutated the queue: %d entries", wb.len())
	}
}

// TestWBOverflowRegression overflows a 1-entry buffer end to end: the
// second push must surface ErrWriteBufferOverflow, not panic and not
// silently drop the write.
func TestWBOverflowRegression(t *testing.T) {
	wb := newWriteBuffer(1, 0, constService(1_000, nil))
	if err := wb.push(0x100, 1, 1); err != nil {
		t.Fatal(err)
	}
	err := wb.push(0x200, 1, 2)
	if !errors.Is(err, ErrWriteBufferOverflow) {
		t.Fatalf("overflowing a 1-entry buffer = %v, want ErrWriteBufferOverflow", err)
	}
	if wb.len() != 1 {
		t.Fatalf("queue length %d after rejected push, want 1", wb.len())
	}
}

func TestWBMatchCompletion(t *testing.T) {
	wb := newWriteBuffer(8, 2, constService(6, nil))
	// 16-byte lines (offBits 4). Two writes to line 0, one to line 1.
	wb.push(0x00, 1, 0)
	wb.push(0x14, 1, 0)
	wb.push(0x08, 1, 0) // youngest write to line 0; completes at 14
	if _, ok := wb.matchCompletion(0x30, 4); ok {
		t.Fatal("matched a line with no pending writes")
	}
	got, ok := wb.matchCompletion(0x0c, 4)
	if !ok {
		t.Fatal("no match for line 0")
	}
	if got != 14 {
		t.Fatalf("match completion = %d, want 14 (the youngest matching write)", got)
	}
}

func TestWBPopAll(t *testing.T) {
	wb := newWriteBuffer(8, 2, constService(6, nil))
	wb.push(0, 1, 0)
	wb.push(4, 1, 0)
	wb.popAll()
	if wb.len() != 0 {
		t.Fatal("popAll left entries")
	}
	if wb.last != 10 {
		t.Fatalf("last completion = %d, want 10", wb.last)
	}
}

func TestWBServiceTimeVariation(t *testing.T) {
	// An entry whose L2 write misses takes much longer; the next entry
	// queues behind it.
	times := []uint64{6, 149, 6}
	i := 0
	wb := newWriteBuffer(8, 2, func(addr uint64, words int, start uint64) uint64 {
		c := times[i]
		i++
		return c
	})
	wb.push(0, 1, 0)
	wb.push(4, 1, 0)
	wb.push(8, 1, 0)
	wb.ensureComplete(2)
	// e0: 0+6=6. e1: start max(0,6-2)=4, +149 = 153. e2: start 151, +6 = 157.
	want := []uint64{6, 153, 157}
	for j, w := range want {
		if wb.at(j).complete != w {
			t.Errorf("entry %d completes at %d, want %d", j, wb.at(j).complete, w)
		}
	}
}

// refWB is the reference write buffer of the differential test: a
// slice FIFO whose popCompleted walks the queue on every call, with no
// guard, and whose pops copy the survivors down.
type refWB struct {
	q        []wbEntry
	capacity int
	overlap  uint64
	last     uint64
	service  serviceFunc
}

func (r *refWB) ensureComplete(i int) {
	for j := 0; j <= i; j++ {
		e := &r.q[j]
		if e.complete != 0 {
			continue
		}
		prev := r.last
		if j > 0 {
			prev = r.q[j-1].complete
		}
		start := e.enq
		if prev > r.overlap && prev-r.overlap > start {
			start = prev - r.overlap
		}
		e.complete = start + r.service(e.addr, e.words, start)
	}
}

func (r *refWB) popCompleted(now uint64) {
	n := 0
	for n < len(r.q) {
		e := &r.q[n]
		if e.complete == 0 {
			if e.enq > now {
				break
			}
			r.ensureComplete(n)
		}
		if e.complete > now {
			break
		}
		r.last = e.complete
		n++
	}
	r.q = append(r.q[:0], r.q[n:]...)
}

func (r *refWB) popAll() {
	if len(r.q) > 0 {
		r.ensureComplete(len(r.q) - 1)
		r.last = r.q[len(r.q)-1].complete
		r.q = r.q[:0]
	}
}

func (r *refWB) emptyCompletion(now uint64) uint64 {
	if len(r.q) == 0 {
		return now
	}
	r.ensureComplete(len(r.q) - 1)
	return max(r.q[len(r.q)-1].complete, now)
}

func (r *refWB) matchCompletion(addr uint64, offBits uint) (uint64, bool) {
	match := -1
	for i := range r.q {
		if r.q[i].addr>>offBits == addr>>offBits {
			match = i
		}
	}
	if match < 0 {
		return 0, false
	}
	r.ensureComplete(match)
	return r.q[match].complete, true
}

// loggedService returns a service function whose time depends only on
// its arguments — mostly an L2 hit, sometimes a memory fetch — and that
// appends every call to log.
func loggedService(log *[][3]uint64) serviceFunc {
	return func(addr uint64, words int, start uint64) uint64 {
		*log = append(*log, [3]uint64{addr, uint64(words), start})
		cycles := 3 + (addr/4*31+start*7)%5
		if (addr/16+start)%7 == 0 {
			cycles += 140
		}
		return cycles
	}
}

// TestWBRingMatchesReference drives the guarded ring buffer and the
// unguarded slice reference through the same seeded operation
// sequences — pushes, per-instruction pops, full drains, head and
// line-match queries at an advancing clock — and requires the same
// results, the same L2 service calls in the same order with the same
// start cycles, and the same queue contents and completion times after
// every operation.
func TestWBRingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(8)
		overlap := uint64(rng.Intn(3))
		var gotLog, wantLog [][3]uint64
		wb := newWriteBuffer(capacity, overlap, loggedService(&gotLog))
		ref := &refWB{capacity: capacity, overlap: overlap, service: loggedService(&wantLog)}
		now := uint64(1)
		for i := 0; i < 3000; i++ {
			now += uint64(rng.Intn(4))
			if rng.Intn(50) == 0 {
				now += uint64(rng.Intn(300))
			}
			addr := uint64(rng.Intn(24)) * 4
			var got, want uint64
			var gotOK, wantOK bool
			switch op := rng.Intn(10); {
			case op < 4:
				if len(ref.q) < capacity {
					if err := wb.push(addr, 1+rng.Intn(4), now); err != nil {
						t.Fatal(err)
					}
					ref.q = append(ref.q, *wb.at(wb.len() - 1))
				}
			case op < 7:
				wb.popCompleted(now)
				ref.popCompleted(now)
			case op == 7:
				got, want = wb.emptyCompletion(now), ref.emptyCompletion(now)
				if rng.Intn(2) == 0 {
					now = got
					wb.popAll()
					ref.popAll()
				}
			case op == 8:
				if wb.len() > 0 {
					got = wb.headComplete()
					ref.ensureComplete(0)
					want = ref.q[0].complete
				}
			default:
				got, gotOK = wb.matchCompletion(addr, 4)
				want, wantOK = ref.matchCompletion(addr, 4)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d op %d: result %d/%v, reference %d/%v", seed, i, got, gotOK, want, wantOK)
			}
			if !slices.Equal(gotLog, wantLog) {
				t.Fatalf("seed %d op %d: service calls %v, reference %v", seed, i, gotLog, wantLog)
			}
			if wb.len() != len(ref.q) || wb.last != ref.last {
				t.Fatalf("seed %d op %d: %d entries (last %d), reference %d (last %d)",
					seed, i, wb.len(), wb.last, len(ref.q), ref.last)
			}
			for j := range ref.q {
				if *wb.at(j) != ref.q[j] {
					t.Fatalf("seed %d op %d: entry %d = %+v, reference %+v", seed, i, j, *wb.at(j), ref.q[j])
				}
			}
		}
	}
}
