package mmu

import "testing"

// BenchmarkTranslate measures one data-side translation, TLB lookup
// included, on two address streams: a same-page run (a word-by-word walk
// that stays on one page, the common case of a loop over local data)
// and a page-hopping stream (consecutive accesses always on different
// pages, drawn from 96 pages: more than the 64-entry DTLB holds, so
// hits and misses mix).
func BenchmarkTranslate(b *testing.B) {
	samePage := make([]uint32, 4096)
	for i := range samePage {
		samePage[i] = 0x0040_0000 + uint32(i*4)&OffsetMask
	}
	hopping := make([]uint32, 4096)
	x, prev := uint32(0x9e3779b9), ^uint32(0)
	for i := range hopping {
		var page uint32
		for page = prev; page == prev; page = x % 96 {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
		}
		prev = page
		hopping[i] = 0x1000_0000 + page<<PageShift + x&OffsetMask&^3
	}
	for _, bc := range []struct {
		name  string
		addrs []uint32
	}{{"same-page", samePage}, {"page-hopping", hopping}} {
		b.Run(bc.name, func(b *testing.B) {
			m := mustMMU(b, Config{})
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				paddr, _ := m.TranslateD(1, bc.addrs[i&(len(bc.addrs)-1)])
				sink += paddr
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			if sink == 0 {
				b.Fatal("no translations")
			}
		})
	}
}
