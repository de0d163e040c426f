package core

import (
	"testing"
	"testing/quick"
)

func testGeom() CacheGeom { return CacheGeom{SizeWords: 64, LineWords: 4, Ways: 1} }

func TestCacheFindAfterInsert(t *testing.T) {
	c := newCache(testGeom())
	line := c.lineAddr(0x1230)
	if c.find(line) >= 0 {
		t.Fatal("cold cache claims to hold a line")
	}
	c.insert(line, flagValid, c.fullMask)
	if c.find(line) < 0 {
		t.Fatal("inserted line not found")
	}
}

func TestCacheDirectMappedConflict(t *testing.T) {
	c := newCache(testGeom()) // 64 W, 4 W lines, 16 sets, 256-byte span
	a := c.lineAddr(0x0000)
	b := c.lineAddr(0x0100) // same set, different tag
	c.insert(a, flagValid, 0)
	ev := c.insert(b, flagValid, 0)
	if !ev.valid || ev.line != a {
		t.Fatalf("conflict eviction = %+v, want line %#x", ev, a)
	}
	if c.find(a) >= 0 {
		t.Fatal("evicted line still present")
	}
	if c.find(b) < 0 {
		t.Fatal("inserted line missing")
	}
}

func TestCacheTwoWayLRU(t *testing.T) {
	g := CacheGeom{SizeWords: 64, LineWords: 4, Ways: 2} // 8 sets
	c := newCache(g)
	// Three lines mapping to set 0 (set span = 8 sets * 16 B = 128 B).
	a, b, d := c.lineAddr(0x000), c.lineAddr(0x080), c.lineAddr(0x100)
	c.insert(a, flagValid, 0)
	c.insert(b, flagValid, 0)
	c.touch(c.find(a)) // a becomes MRU, b is LRU
	ev := c.insert(d, flagValid, 0)
	if ev.line != b {
		t.Fatalf("evicted %#x, want LRU %#x", ev.line, b)
	}
	if c.find(a) < 0 || c.find(d) < 0 {
		t.Fatal("MRU or new line missing after LRU eviction")
	}
}

func TestCacheInsertInPlaceWhenPresent(t *testing.T) {
	g := CacheGeom{SizeWords: 64, LineWords: 4, Ways: 2}
	c := newCache(g)
	a := c.lineAddr(0x000)
	c.insert(a, flagWriteOnly|flagDirty, 0)
	// Reallocating the same line (a read to a write-only line) must
	// update in place, not occupy the second way.
	ev := c.insert(a, flagValid, c.fullMask)
	if !ev.valid || ev.line != a || !ev.dirty {
		t.Fatalf("in-place insert eviction = %+v, want dirty line %#x", ev, a)
	}
	slot := c.find(a)
	if slot < 0 || c.flags[slot] != flagValid {
		t.Fatalf("line not updated in place: slot %d flags %#x", slot, c.flags[slot])
	}
	// The other way must still be free.
	b := c.lineAddr(0x080)
	if ev := c.insert(b, flagValid, 0); ev.valid {
		t.Fatalf("second way was not free: evicted %+v", ev)
	}
}

func TestCacheDirtyEvictionReported(t *testing.T) {
	c := newCache(testGeom())
	a := c.lineAddr(0x0000)
	c.insert(a, flagValid|flagDirty, 0)
	ev := c.insert(c.lineAddr(0x0100), flagValid, 0)
	if !ev.dirty {
		t.Fatal("dirty victim not reported dirty")
	}
}

func TestCacheWordOf(t *testing.T) {
	c := newCache(testGeom()) // 4 W lines
	tests := []struct {
		addr uint64
		want uint
	}{{0x00, 0}, {0x04, 1}, {0x08, 2}, {0x0c, 3}, {0x10, 0}, {0x1c, 3}}
	for _, tt := range tests {
		if got := c.wordOf(tt.addr); got != tt.want {
			t.Errorf("wordOf(%#x) = %d, want %d", tt.addr, got, tt.want)
		}
	}
}

func TestCacheFullMask(t *testing.T) {
	c := newCache(CacheGeom{SizeWords: 64, LineWords: 8, Ways: 1})
	if c.fullMask != 0xff {
		t.Fatalf("fullMask = %#x, want 0xff", c.fullMask)
	}
}

func TestLog2(t *testing.T) {
	for _, tt := range []struct {
		v    uint64
		want uint
	}{{1, 0}, {2, 1}, {16, 4}, {4096, 12}} {
		if got := log2(tt.v); got != tt.want {
			t.Errorf("log2(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

// Property: a direct-mapped cache always holds the most recently
// inserted line of each set, and never holds two lines of the same set.
func TestDirectMappedMostRecentProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := newCache(testGeom())
		last := make(map[uint64]uint64) // set -> line
		for _, a := range addrs {
			line := c.lineAddr(uint64(a))
			c.insert(line, flagValid, 0)
			last[c.setOf(line)] = line
		}
		for set, line := range last {
			slot := c.find(line)
			if slot < 0 {
				return false
			}
			if c.setOf(c.tags[slot]) != set {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a 2-way cache retains the two most recently used distinct
// lines of any set.
func TestTwoWayRetainsTwoMRUProperty(t *testing.T) {
	g := CacheGeom{SizeWords: 64, LineWords: 4, Ways: 2}
	f := func(seq []uint8) bool {
		c := newCache(g)
		var mru []uint64 // distinct lines of set 0, most recent first
		for _, s := range seq {
			// All addresses map to set 0: line address = k * 8 sets.
			line := c.lineAddr(uint64(s%8) * 0x80)
			if slot := c.find(line); slot >= 0 {
				c.touch(slot)
			} else {
				c.insert(line, flagValid, 0)
			}
			out := []uint64{line}
			for _, m := range mru {
				if m != line {
					out = append(out, m)
				}
			}
			mru = out
		}
		for i, m := range mru {
			if i >= 2 {
				break
			}
			if c.find(m) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
