package mmu

import (
	"errors"
	"testing"
	"testing/quick"
)

// mustMMU builds an MMU from a known-good config.
func mustMMU(t testing.TB, cfg Config) *MMU {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// mustTLB builds a TLB with a known-good shape.
func mustTLB(t *testing.T, entries, ways int) *TLB {
	t.Helper()
	tlb, err := NewTLB(entries, ways)
	if err != nil {
		t.Fatalf("NewTLB: %v", err)
	}
	return tlb
}

func TestTranslateDeterministic(t *testing.T) {
	m := mustMMU(t, Config{})
	p1, _ := m.TranslateD(1, 0x1234_5678)
	p2, _ := m.TranslateD(1, 0x1234_5678)
	if p1 != p2 {
		t.Fatalf("translation not stable: %#x vs %#x", p1, p2)
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	m := mustMMU(t, Config{})
	vaddr := uint32(0x0123_7abc)
	paddr, _ := m.TranslateD(3, vaddr)
	if got, want := uint32(paddr)&OffsetMask, vaddr&OffsetMask; got != want {
		t.Fatalf("page offset changed: got %#x, want %#x", got, want)
	}
}

func TestPageColoringPreservesColor(t *testing.T) {
	m := mustMMU(t, Config{Colors: 64})
	const pid = PID(5)
	for _, vaddr := range []uint32{0, 0x4000, 0x12340000, 0xffffc000, 0x8000_0004} {
		paddr, _ := m.TranslateD(pid, vaddr)
		vpn := vaddr >> PageShift
		pfn := uint32(paddr >> PageShift)
		want := (vpn + uint32(pid)*pidColorStride) % 64
		if pfn%64 != want {
			t.Errorf("vaddr %#x: color %d, want %d", vaddr, pfn%64, want)
		}
	}
}

func TestPIDColorStagger(t *testing.T) {
	// Identically laid out processes must not share cache colors for
	// the same virtual page.
	m := mustMMU(t, Config{Colors: 64})
	pa, _ := m.TranslateD(1, 0)
	pb, _ := m.TranslateD(2, 0)
	if pa>>PageShift%64 == pb>>PageShift%64 {
		t.Fatalf("two processes' page 0 share a color: %#x %#x", pa, pb)
	}
}

func TestDistinctAddressSpaces(t *testing.T) {
	m := mustMMU(t, Config{})
	pa, _ := m.TranslateD(1, 0x4000)
	pb, _ := m.TranslateD(2, 0x4000)
	if pa == pb {
		t.Fatalf("two PIDs mapped same vaddr to same frame %#x", pa)
	}
}

func TestFramesNeverCollide(t *testing.T) {
	m := mustMMU(t, Config{Colors: 4})
	seen := make(map[uint64]string)
	for pid := PID(0); pid < 4; pid++ {
		for vpn := uint32(0); vpn < 32; vpn++ {
			paddr, _ := m.TranslateD(pid, vpn<<PageShift)
			frame := paddr >> PageShift
			key := frame
			if prev, ok := seen[key]; ok {
				t.Fatalf("frame %d assigned twice (%s and pid=%d vpn=%d)", frame, prev, pid, vpn)
			}
			seen[key] = "assigned"
		}
	}
}

func TestMappedPages(t *testing.T) {
	m := mustMMU(t, Config{})
	m.TranslateI(1, 0)
	m.TranslateI(1, 4) // same page
	m.TranslateD(1, PageBytes)
	m.TranslateD(2, 0)
	if got := m.MappedPages(); got != 3 {
		t.Fatalf("MappedPages = %d, want 3", got)
	}
}

// Property: within one address space, translation preserves cache-index
// structure up to the process's fixed color offset — the invariant the
// TLB slice and the physically indexed L2 rely on.
func TestColoringIndexPreservationProperty(t *testing.T) {
	m := mustMMU(t, Config{Colors: 64})
	cacheBytes := uint64(64 * PageBytes) // 1 MB: the base 256 KW L2
	f := func(pid uint8, vaddr uint32) bool {
		paddr, _ := m.TranslateD(PID(pid), vaddr)
		shifted := (uint64(vaddr) + uint64(pid)*pidColorStride*PageBytes) % cacheBytes
		return paddr%cacheBytes == shifted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTLBHitMissSequence(t *testing.T) {
	tlb := mustTLB(t, 4, 2) // 2 sets x 2 ways
	if tlb.Access(1, 0) {
		t.Fatal("first access hit an empty TLB")
	}
	if !tlb.Access(1, 0) {
		t.Fatal("second access to same page missed")
	}
	// Fill set 0 (vpns with even index map to set 0).
	tlb.Access(1, 2)
	if !tlb.Access(1, 0) || !tlb.Access(1, 2) {
		t.Fatal("2-way set did not hold two pages")
	}
	// Third even vpn evicts the LRU (vpn 0 after touching order 0,2,0,2 -> LRU is 0).
	tlb.Access(1, 4)
	if tlb.Access(1, 0) {
		t.Fatal("LRU entry not evicted")
	}
}

func TestTLBLRUOrder(t *testing.T) {
	tlb := mustTLB(t, 2, 2) // 1 set x 2 ways
	tlb.Access(1, 0)        // miss
	tlb.Access(1, 1)        // miss
	tlb.Access(1, 0)        // hit: 1 becomes LRU
	tlb.Access(1, 2)        // miss: evicts 1
	if !tlb.Access(1, 0) {
		t.Fatal("MRU entry was evicted")
	}
	if tlb.Access(1, 1) {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestTLBPIDsDistinct(t *testing.T) {
	tlb := mustTLB(t, 4, 2)
	tlb.Access(1, 0)
	if tlb.Access(2, 0) {
		t.Fatal("vpn hit across different PIDs")
	}
}

func TestTLBStats(t *testing.T) {
	tlb := mustTLB(t, 8, 2)
	tlb.Access(1, 0)
	tlb.Access(1, 0)
	tlb.Access(1, 1)
	s := tlb.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit 2 misses", s)
	}
	if got, want := s.MissRatio(), 2.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("MissRatio = %g, want %g", got, want)
	}
	if (TLBStats{}).MissRatio() != 0 {
		t.Fatal("empty MissRatio not 0")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := mustTLB(t, 4, 2)
	tlb.Access(1, 0)
	tlb.Flush()
	if tlb.Access(1, 0) {
		t.Fatal("entry survived Flush")
	}
}

func TestTLBShapeValidation(t *testing.T) {
	for _, bad := range []struct{ entries, ways int }{
		{0, 2}, {4, 0}, {5, 2}, {6, 2}, // 6/2=3 sets: not a power of two
	} {
		if _, err := NewTLB(bad.entries, bad.ways); !errors.Is(err, ErrBadTLBShape) {
			t.Errorf("NewTLB(%d, %d) = %v, want ErrBadTLBShape", bad.entries, bad.ways, err)
		}
	}
	// The same shapes must be rejected at MMU construction and by
	// Config.Validate, so bad configs fail before any simulation.
	bad := Config{ITLBEntries: 5}
	if _, err := New(bad); !errors.Is(err, ErrBadTLBShape) {
		t.Errorf("New with bad ITLB shape = %v, want ErrBadTLBShape", err)
	}
	if err := bad.Validate(); !errors.Is(err, ErrBadTLBShape) {
		t.Errorf("Validate with bad ITLB shape = %v, want ErrBadTLBShape", err)
	}
}

func TestTLBPaperShapes(t *testing.T) {
	i := mustTLB(t, 32, 2)
	d := mustTLB(t, 64, 2)
	if i.Entries() != 32 || i.Ways() != 2 {
		t.Errorf("ITLB shape %dx%d", i.Entries(), i.Ways())
	}
	if d.Entries() != 64 || d.Ways() != 2 {
		t.Errorf("DTLB shape %dx%d", d.Entries(), d.Ways())
	}
}

func TestMMUDefaultsAndString(t *testing.T) {
	m := mustMMU(t, Config{})
	if m.Colors() != 64 {
		t.Errorf("default colors = %d, want 64", m.Colors())
	}
	if m.ITLB().Entries() != 32 || m.DTLB().Entries() != 64 {
		t.Errorf("default TLB sizes %d/%d, want 32/64", m.ITLB().Entries(), m.DTLB().Entries())
	}
	if m.String() == "" {
		t.Error("String empty")
	}
}
