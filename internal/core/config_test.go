package core

import (
	"strings"
	"testing"
)

func TestBaseConfigValid(t *testing.T) {
	c := Base()
	if err := c.Validate(); err != nil {
		t.Fatalf("Base() invalid: %v", err)
	}
	if c.L1I.SizeWords != 4*1024 || c.L1D.SizeWords != 4*1024 {
		t.Errorf("base L1 sizes %d/%d, want 4096/4096", c.L1I.SizeWords, c.L1D.SizeWords)
	}
	if got := c.L2U.Timing.AccessTime(); got != 6 {
		t.Errorf("base L2 access time = %d, want 6", got)
	}
	if c.MemCleanPenalty != 143 || c.MemDirtyPenalty != 237 {
		t.Errorf("base memory penalties %d/%d, want 143/237", c.MemCleanPenalty, c.MemDirtyPenalty)
	}
}

func TestOptimizedConfigValid(t *testing.T) {
	c := Optimized()
	if err := c.Validate(); err != nil {
		t.Fatalf("Optimized() invalid: %v", err)
	}
	if !c.L2Split {
		t.Error("optimized config not split")
	}
	if c.L2I.Geom.SizeWords != 32*1024 || c.L2D.Geom.SizeWords != 256*1024 {
		t.Errorf("optimized L2 sizes %d/%d", c.L2I.Geom.SizeWords, c.L2D.Geom.SizeWords)
	}
	if c.WritePolicy != WriteOnly || c.LoadsPassStores != LPSDirtyBit {
		t.Errorf("optimized policy %v/%v", c.WritePolicy, c.LoadsPassStores)
	}
	if c.L1I.LineWords != 8 || c.L1D.LineWords != 8 {
		t.Errorf("optimized line sizes %d/%d, want 8/8", c.L1I.LineWords, c.L1D.LineWords)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero L1I size", func(c *Config) { c.L1I.SizeWords = 0 }},
		{"line not power of two", func(c *Config) { c.L1D.LineWords = 3 }},
		{"size not divisible", func(c *Config) { c.L1D.SizeWords = 4096 + 4 }},
		{"fetch not multiple of line", func(c *Config) { c.L1IFetch = 6 }},
		{"fetch exceeds L2 line", func(c *Config) { c.L1DFetch = 64 }},
		{"L1-I fetch not a power of two", func(c *Config) { c.L1IFetch = 12 }},
		{"L1-D fetch not a power of two", func(c *Config) { c.L1DFetch = 12 }},
		{"negative fetch", func(c *Config) { c.L1DFetch = -4 }},
		{"zero WB entries", func(c *Config) { c.WBEntries = 0 }},
		{"zero WB width", func(c *Config) { c.WBEntryWords = 0 }},
		{"dirty penalty below clean", func(c *Config) { c.MemDirtyPenalty = 10 }},
		{"negative clean penalty", func(c *Config) { c.MemCleanPenalty = -1; c.MemDirtyPenalty = 0 }},
		{"dirty-bit without write-only", func(c *Config) {
			c.WritePolicy = WriteMissInvalidate
			c.LoadsPassStores = LPSDirtyBit
		}},
		{"LPS with write-back", func(c *Config) { c.LoadsPassStores = LPSAssociative }},
		{"concurrent I-refill with unified L2", func(c *Config) { c.IMissWaitsForWB = false }},
		{"bad split L2-I", func(c *Config) {
			c.L2Split = true
			c.L2I = L2Bank{Geom: CacheGeom{SizeWords: 100, LineWords: 32, Ways: 1}}
			c.L2D = c.L2U
		}},
	}
	for _, m := range mutations {
		c := Base()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", m.name)
		}
	}
}

func TestBankTimingRefill(t *testing.T) {
	base := BankTiming{Latency: 2, ChunkCycles: 4, PathWords: 4}
	tests := []struct {
		words int
		want  int
	}{
		{4, 6},   // the base architecture's 6-cycle miss penalty
		{8, 10},  // two chunks
		{16, 18}, // four chunks
		{1, 6},   // partial chunk rounds up
	}
	for _, tt := range tests {
		if got := base.RefillCycles(tt.words); got != tt.want {
			t.Errorf("RefillCycles(%d) = %d, want %d", tt.words, got, tt.want)
		}
	}
	// The optimized L2-I: latency 2, four words per cycle, so an 8 W
	// fetch costs 4 cycles (Section 8).
	opt := BankTiming{Latency: 2, ChunkCycles: 1, PathWords: 4}
	if got := opt.RefillCycles(8); got != 4 {
		t.Errorf("optimized L2-I RefillCycles(8) = %d, want 4", got)
	}
	// The optimized L2-D: latency 6, so an 8 W fetch costs 8 cycles.
	optD := BankTiming{Latency: 6, ChunkCycles: 1, PathWords: 4}
	if got := optD.RefillCycles(8); got != 8 {
		t.Errorf("optimized L2-D RefillCycles(8) = %d, want 8", got)
	}
}

func TestTimingForAccess(t *testing.T) {
	for total := 1; total <= 10; total++ {
		bt := TimingForAccess(total)
		if got := bt.AccessTime(); got != total {
			t.Errorf("TimingForAccess(%d).AccessTime() = %d", total, got)
		}
		if bt.Latency > 2 {
			t.Errorf("TimingForAccess(%d).Latency = %d, want <= 2", total, bt.Latency)
		}
		if bt.ChunkCycles < 0 {
			t.Errorf("TimingForAccess(%d).ChunkCycles = %d < 0", total, bt.ChunkCycles)
		}
	}
}

func TestSplitBankHalves(t *testing.T) {
	u := Base().L2U
	i, d := SplitBank(u)
	if i.Geom.SizeWords != u.Geom.SizeWords/2 || d.Geom.SizeWords != u.Geom.SizeWords/2 {
		t.Errorf("SplitBank sizes %d/%d, want %d", i.Geom.SizeWords, d.Geom.SizeWords, u.Geom.SizeWords/2)
	}
	if i.Timing != u.Timing || d.Timing != u.Timing {
		t.Error("SplitBank changed timing")
	}
}

func TestPolicyAndModeStrings(t *testing.T) {
	if WriteOnly.String() != "write-only" || WriteBack.String() != "write-back" {
		t.Error("policy names wrong")
	}
	if !strings.Contains(WriteMissInvalidate.String(), "invalidate") {
		t.Error("WMI name wrong")
	}
	if Subblock.String() != "subblock" {
		t.Error("subblock name wrong")
	}
	if LPSDirtyBit.String() != "dirty-bit" || LPSNone.String() != "wait-wb-empty" {
		t.Error("LPS names wrong")
	}
	if WritePolicy(99).String() == "" || LPSMode(99).String() == "" {
		t.Error("unknown values must still format")
	}
}

func TestCacheGeomBytes(t *testing.T) {
	g := CacheGeom{SizeWords: 4096, LineWords: 4, Ways: 1}
	if g.Bytes() != 16*1024 {
		t.Errorf("4 KW = %d bytes, want 16384", g.Bytes())
	}
}

func TestFetchDefaults(t *testing.T) {
	c := Base()
	if c.l1iFetch() != c.L1I.LineWords || c.l1dFetch() != c.L1D.LineWords {
		t.Error("fetch default is not the line size")
	}
	c.L1IFetch = 8
	if c.l1iFetch() != 8 {
		t.Error("explicit fetch ignored")
	}
}

func TestConfigString(t *testing.T) {
	base := Base().String()
	for _, want := range []string{"L1-I 4KW", "write-back", "WB 4x4W", "unified L2 256KW/6cyc", "mem 143/237"} {
		if !strings.Contains(base, want) {
			t.Errorf("Base().String() = %q, missing %q", base, want)
		}
	}
	opt := Optimized().String()
	for _, want := range []string{"write-only", "split L2: I 32KW/3cyc + D 256KW/7cyc", "LPS:dirty-bit", "L2 dirty buffer", "I-refill||WB"} {
		if !strings.Contains(opt, want) {
			t.Errorf("Optimized().String() = %q, missing %q", opt, want)
		}
	}
}
