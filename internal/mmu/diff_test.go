package mmu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refTLB is the reference TLB of the differential tests: the same
// set-associative organization and replacement rule as TLB, written
// without the repeat-key fast path — every access scans its set.
type refTLB struct {
	sets    uint32
	ways    int
	tags    []uint64
	lruBits []uint8
	stats   TLBStats
}

func newRefTLB(entries, ways int) *refTLB {
	r := &refTLB{
		sets:    uint32(entries / ways),
		ways:    ways,
		tags:    make([]uint64, entries),
		lruBits: make([]uint8, entries/ways),
	}
	r.flush()
	return r
}

func (r *refTLB) access(pid PID, vpn uint32) bool {
	key := uint64(pid)<<32 | uint64(vpn)
	set := vpn & (r.sets - 1)
	base := int(set) * r.ways
	way := -1
	for w := 0; w < r.ways; w++ {
		if r.tags[base+w] == key {
			way = w
		}
	}
	hit := way >= 0
	if hit {
		r.stats.Hits++
	} else {
		r.stats.Misses++
		way = int(r.lruBits[set]) % r.ways
		for w := r.ways - 1; w >= 0; w-- {
			if r.tags[base+w] == entryInvalid {
				way = w
			}
		}
		r.tags[base+way] = key
	}
	if r.ways == 2 {
		r.lruBits[set] = uint8(1 - way)
	} else {
		r.lruBits[set] = uint8((way + 1) % r.ways)
	}
	return hit
}

func (r *refTLB) flush() {
	for i := range r.tags {
		r.tags[i] = entryInvalid
	}
}

// sameTLB reports how t differs from the reference, or "".
func sameTLB(t *TLB, r *refTLB) string {
	switch {
	case t.stats != r.stats:
		return fmt.Sprintf("stats %v, reference %v", t.stats, r.stats)
	case !slices.Equal(t.tags, r.tags):
		return fmt.Sprintf("tags %x, reference %x", t.tags, r.tags)
	case !slices.Equal(t.lruBits, r.lruBits):
		return fmt.Sprintf("replacement state %v, reference %v", t.lruBits, r.lruBits)
	}
	return ""
}

// refMMU is the reference MMU: a first-touch page table with the
// default staggered coloring, two scanning reference TLBs, and the
// functional-warming memo whose hits leave the TLB alone.
type refMMU struct {
	pages    map[uint64]uint32
	nextFree []uint32
	itlb     *refTLB
	dtlb     *refTLB
	warmI    [warmMemoSize]uint64
	warmD    [warmMemoSize]uint64
}

func newRefMMU() *refMMU {
	r := &refMMU{
		pages:    map[uint64]uint32{},
		nextFree: make([]uint32, 64),
		itlb:     newRefTLB(32, 2),
		dtlb:     newRefTLB(64, 2),
	}
	for i := range r.warmI {
		r.warmI[i], r.warmD[i] = transCacheEmpty, transCacheEmpty
	}
	return r
}

func (r *refMMU) paddr(pid PID, vaddr uint32) uint64 {
	vpn := vaddr >> PageShift
	key := uint64(pid)<<32 | uint64(vpn)
	pfn, ok := r.pages[key]
	if !ok {
		color := (vpn + uint32(pid)*pidColorStride) % 64
		pfn = r.nextFree[color]*64 + color
		r.nextFree[color]++
		r.pages[key] = pfn
	}
	return uint64(pfn)<<PageShift | uint64(vaddr&OffsetMask)
}

func (r *refMMU) translate(tlb *refTLB, pid PID, vaddr uint32) (uint64, bool) {
	hit := tlb.access(pid, vaddr>>PageShift)
	return r.paddr(pid, vaddr), hit
}

func (r *refMMU) translateWarm(tlb *refTLB, memo *[warmMemoSize]uint64, pid PID, vaddr uint32) uint64 {
	key := uint64(pid)<<32 | uint64(vaddr>>PageShift)
	if memo[key&(warmMemoSize-1)] != key {
		tlb.access(pid, vaddr>>PageShift)
		memo[key&(warmMemoSize-1)] = key
	}
	return r.paddr(pid, vaddr)
}

// mmuOp is one step of a differential sequence.
type mmuOp struct {
	kind  byte // 'I', 'D': exact; 'i', 'd': warm; 'F', 'G': flush ITLB, DTLB
	pid   PID
	vaddr uint32
}

// apply runs op on both models and reports the first disagreement.
func apply(m *MMU, r *refMMU, op mmuOp) string {
	var got, want uint64
	var gotHit, wantHit bool
	switch op.kind {
	case 'I':
		got, gotHit = m.TranslateI(op.pid, op.vaddr)
		want, wantHit = r.translate(r.itlb, op.pid, op.vaddr)
	case 'D':
		got, gotHit = m.TranslateD(op.pid, op.vaddr)
		want, wantHit = r.translate(r.dtlb, op.pid, op.vaddr)
	case 'i':
		got = m.TranslateWarmI(op.pid, op.vaddr)
		want = r.translateWarm(r.itlb, &r.warmI, op.pid, op.vaddr)
	case 'd':
		got = m.TranslateWarmD(op.pid, op.vaddr)
		want = r.translateWarm(r.dtlb, &r.warmD, op.pid, op.vaddr)
	case 'F':
		m.ITLB().Flush()
		r.itlb.flush()
	case 'G':
		m.DTLB().Flush()
		r.dtlb.flush()
	}
	if got != want || gotHit != wantHit {
		return fmt.Sprintf("paddr %#x hit %v, reference %#x hit %v", got, gotHit, want, wantHit)
	}
	if d := sameTLB(m.itlb, r.itlb); d != "" {
		return "ITLB " + d
	}
	if d := sameTLB(m.dtlb, r.dtlb); d != "" {
		return "DTLB " + d
	}
	return ""
}

func runOps(t *testing.T, name string, ops []mmuOp) {
	t.Helper()
	m, r := mustMMU(t, Config{}), newRefMMU()
	for i, op := range ops {
		if d := apply(m, r, op); d != "" {
			t.Fatalf("%s: op %d %c pid %d vaddr %#x: %s", name, i, op.kind, op.pid, op.vaddr, d)
		}
	}
}

// collidingVPNs share set 0 of both the 16-set ITLB and the 32-set
// DTLB, plus two pages of other sets.
var collidingVPNs = []uint32{0, 32, 64, 96, 128, 1, 17}

// TestTranslateMatchesScanningReference draws seeded sequences mixing
// exact and warm translations and flushes over several address spaces
// and set-colliding pages — repeats of the previous page included, so
// the repeat-key fast paths run often — and requires the physical
// address, the hit flag, both TLBs' statistics, tags and replacement
// state to equal the always-scanning reference after every operation.
func TestTranslateMatchesScanningReference(t *testing.T) {
	const kinds = "IIIIDDDDiiddFG"
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]mmuOp, 4000)
		prev := mmuOp{kind: 'I', pid: 1}
		for i := range ops {
			op := mmuOp{kind: kinds[rng.Intn(len(kinds))], pid: prev.pid, vaddr: prev.vaddr}
			if rng.Intn(3) == 0 {
				op.pid = PID(1 + rng.Intn(3))
				op.vaddr = collidingVPNs[rng.Intn(len(collidingVPNs))] << PageShift
			}
			op.vaddr = op.vaddr&^OffsetMask | uint32(rng.Intn(PageBytes))&^3
			ops[i], prev = op, op
		}
		runOps(t, fmt.Sprintf("seed %d", seed), ops)
	}
}

// TestTranslateWarmMissThenExact pins the interleavings a memo that
// trusted only the port's last translation would get wrong: the page
// the exact port touched last is evicted by functional-warming misses
// (or a flush) in between, so the next exact access to it must miss.
func TestTranslateWarmMissThenExact(t *testing.T) {
	a, b, c := uint32(0)<<PageShift, uint32(32)<<PageShift, uint32(64)<<PageShift // one ITLB/DTLB set
	runOps(t, "warm misses evict the exact port's page", []mmuOp{
		{'I', 1, a}, {'I', 1, a + 4}, {'i', 1, b}, {'i', 1, c}, {'I', 1, a + 8}, {'I', 1, a + 12},
		{'D', 2, a}, {'d', 2, b}, {'d', 2, c}, {'D', 2, a}, {'D', 2, a},
	})
	runOps(t, "a warm miss on the same page", []mmuOp{
		{'I', 1, a}, {'i', 1, b}, {'i', 1, a}, {'I', 1, a}, {'I', 1, b}, {'i', 1, c}, {'I', 1, b},
	})
	runOps(t, "a flush between repeats", []mmuOp{
		{'I', 1, a}, {'I', 1, a}, {'F', 0, 0}, {'I', 1, a}, {'I', 1, a},
		{'D', 3, c}, {'G', 0, 0}, {'D', 3, c}, {'D', 3, c},
	})
	runOps(t, "another address space on the same page number", []mmuOp{
		{'D', 1, a}, {'D', 2, a}, {'D', 1, a}, {'d', 3, a}, {'D', 3, a}, {'D', 3, a},
	})
}

// TestTLBMatchesScanningReference drives bare TLBs of several shapes —
// including a 4-way one, whose round-robin replacement pointer the
// repeat-key hit must also leave as a scan would — through seeded
// access and flush sequences against the reference.
func TestTLBMatchesScanningReference(t *testing.T) {
	for _, shape := range []struct{ entries, ways int }{{32, 2}, {64, 2}, {16, 4}, {8, 8}, {4, 1}} {
		rng := rand.New(rand.NewSource(int64(shape.entries*10 + shape.ways)))
		tlb, ref := mustTLB(t, shape.entries, shape.ways), newRefTLB(shape.entries, shape.ways)
		pid, vpn := PID(1), uint32(0)
		for i := 0; i < 20_000; i++ {
			if rng.Intn(100) == 0 {
				tlb.Flush()
				ref.flush()
				continue
			}
			if rng.Intn(2) == 0 {
				pid, vpn = PID(1+rng.Intn(2)), uint32(rng.Intn(4*shape.entries))
			}
			if got, want := tlb.Access(pid, vpn), ref.access(pid, vpn); got != want {
				t.Fatalf("%dx%d op %d: hit %v, reference %v", shape.entries, shape.ways, i, got, want)
			}
			if d := sameTLB(tlb, ref); d != "" {
				t.Fatalf("%dx%d op %d: %s", shape.entries, shape.ways, i, d)
			}
		}
	}
}
