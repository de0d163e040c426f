// Package core implements the paper's primary contribution: a
// cycle-accounting model of the two-level split cache hierarchy designed
// for the 250 MHz GaAs microprocessor, including the four primary-cache
// write policies (write-back, write-miss-invalidate, the paper's new
// write-only policy, and subblock placement), the write buffer with
// stream-overlap drain timing, unified and split secondary caches with
// clean/dirty main-memory miss penalties, the L2 dirty buffer, and both
// loads-pass-stores schemes (associative matching and the dirty-bit
// scheme that needs no associative matching).
//
// A System consumes trace events (already multiplexed across processes
// by the scheduler) and attributes every stall cycle to a named cause,
// reproducing the paper's Fig. 4 CPI stack.
package core

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// WritePolicy selects how the primary data cache handles stores.
type WritePolicy int

const (
	// WriteBack: write hits take 2 cycles (tag check before commit),
	// write misses allocate; replaced dirty lines drain through a
	// line-wide write buffer. The base architecture's policy.
	WriteBack WritePolicy = iota
	// WriteMissInvalidate: write-through; hits take 1 cycle (data
	// written while the tag is checked), misses take a second cycle to
	// invalidate the corrupted line.
	WriteMissInvalidate
	// WriteOnly: the paper's new policy. Write-through like
	// write-miss-invalidate, but a write miss updates the tag and marks
	// the line write-only so subsequent writes to the line hit in one
	// cycle. Reads that map to a write-only line miss and reallocate.
	WriteOnly
	// Subblock: write-through subblock placement with one valid bit per
	// word. A full-word write miss installs the tag and validates just
	// that word; reads require the word's valid bit.
	Subblock
)

// String returns the policy name used in the paper's figures.
func (p WritePolicy) String() string {
	switch p {
	case WriteBack:
		return "write-back"
	case WriteMissInvalidate:
		return "write-miss-invalidate"
	case WriteOnly:
		return "write-only"
	case Subblock:
		return "subblock"
	}
	return fmt.Sprintf("WritePolicy(%d)", int(p))
}

// LPSMode selects the loads-pass-stores scheme (Section 9).
type LPSMode int

const (
	// LPSNone: every L1 miss waits for the write buffer to empty before
	// fetching (the base architecture).
	LPSNone LPSMode = iota
	// LPSAssociative: a read miss associatively matches the write
	// buffer; on a match, entries up to and including the match are
	// flushed, otherwise the read proceeds immediately.
	LPSAssociative
	// LPSDirtyBit: the paper's cheap scheme. An extra dirty bit on the
	// L1-D tags marks written lines; the write buffer is flushed only
	// when a dirty line is replaced. Requires the write-only policy,
	// which guarantees all writes allocate so the buffer can only hold
	// parts of dirty lines.
	LPSDirtyBit
)

// String returns the scheme name.
func (m LPSMode) String() string {
	switch m {
	case LPSNone:
		return "wait-wb-empty"
	case LPSAssociative:
		return "associative-match"
	case LPSDirtyBit:
		return "dirty-bit"
	}
	return fmt.Sprintf("LPSMode(%d)", int(m))
}

// BankTiming describes the timing of one secondary-cache bank as seen
// from L1: a refill of F words costs
//
//	Latency + ceil(F/PathWords) * ChunkCycles
//
// and a single access (one PathWords-wide read or write) costs
// Latency + ChunkCycles, the paper's "L2 access time". Streams of
// write-buffer drains overlap up to Latency cycles between consecutive
// accesses.
type BankTiming struct {
	Latency     int // tag check + chip-crossing communication cycles
	ChunkCycles int // cycles per PathWords-wide data transfer
	PathWords   int // refill path width in words
}

// AccessTime returns the single-access time Latency + ChunkCycles.
func (t BankTiming) AccessTime() int { return t.Latency + t.ChunkCycles }

// RefillCycles returns the cost of fetching words from this bank.
func (t BankTiming) RefillCycles(words int) int {
	chunks := (words + t.PathWords - 1) / t.PathWords
	return t.Latency + chunks*t.ChunkCycles
}

// TimingForAccess returns the base-architecture-style timing whose
// single access takes total cycles: a two-cycle latency where possible
// (the paper's Fig. 5 convention) and the rest data transfer.
func TimingForAccess(total int) BankTiming {
	lat := 2
	if total-1 < lat {
		lat = total - 1
	}
	if lat < 0 {
		lat = 0
	}
	return BankTiming{Latency: lat, ChunkCycles: total - lat, PathWords: 4}
}

// CacheGeom describes one cache array.
type CacheGeom struct {
	SizeWords int // total capacity in 32-bit words
	LineWords int // line length in words
	Ways      int // associativity (1 = direct mapped)
}

// Bytes returns the capacity in bytes.
func (g CacheGeom) Bytes() int { return g.SizeWords * trace.WordBytes }

// Validate reports whether the geometry is implementable; name labels
// the cache in the error.
func (g CacheGeom) Validate(name string) error {
	switch {
	case g.SizeWords <= 0 || g.LineWords <= 0 || g.Ways <= 0:
		return fmt.Errorf("core: %s: nonpositive geometry %+v", name, g)
	case g.SizeWords%(g.LineWords*g.Ways) != 0:
		return fmt.Errorf("core: %s: size %dW not divisible by line %dW x ways %d", name, g.SizeWords, g.LineWords, g.Ways)
	case !powerOfTwo(g.LineWords):
		return fmt.Errorf("core: %s: line %dW not a power of two", name, g.LineWords)
	case !powerOfTwo(g.SizeWords / (g.LineWords * g.Ways)):
		return fmt.Errorf("core: %s: set count %d not a power of two", name, g.SizeWords/(g.LineWords*g.Ways))
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// L2Bank couples a geometry with its timing.
type L2Bank struct {
	Geom   CacheGeom
	Timing BankTiming
}

// Config parameterizes a System. Base() returns the paper's baseline;
// experiment code derives variants from it.
type Config struct {
	// Primary caches. FetchWords is the refill fetch size (Section 8);
	// zero means the line size.
	L1I, L1D    CacheGeom
	L1IFetch    int
	L1DFetch    int
	WritePolicy WritePolicy

	// Write buffer shape: Entries deep, EntryWords wide. The base
	// write-back buffer is 4x4W; the write-through buffers are 8x1W.
	// WBNoOverlap disables the latency overlap between consecutive
	// drains (an ablation of the paper's "a stream of writes may
	// overlap one or both cycles of latency").
	WBEntries    int
	WBEntryWords int
	WBNoOverlap  bool

	// Secondary cache. If L2Split is false, L2U describes the unified
	// cache and instruction and data accesses share it (and its port).
	// If true, L2I and L2D describe the two halves, which may be
	// asymmetric in size and speed (the paper's optimized design).
	L2Split bool
	L2U     L2Bank
	L2I     L2Bank
	L2D     L2Bank

	// Main memory penalties in cycles, from the R6020 bus chip: a clean
	// L2 miss and a miss that must first write back a dirty victim.
	MemCleanPenalty int
	MemDirtyPenalty int
	// L2DirtyBuffer holds a dirty victim so the requested line is read
	// first; the write-back drains while the memory bus is otherwise
	// idle (Section 9).
	L2DirtyBuffer bool

	// Concurrency controls (Section 9). IMissWaitsForWB mirrors the
	// base architecture; clearing it lets L1-I refill from a split L2-I
	// while the write buffer drains into L2-D.
	IMissWaitsForWB bool
	LoadsPassStores LPSMode

	// TLBMissPenalty is charged per TLB miss. The paper's CPI stack
	// excludes TLB effects, so the base value is zero; misses are
	// counted regardless.
	TLBMissPenalty int
	MMU            mmu.Config

	// SelfCheck runs CheckInvariants every N cycles during Step (0 =
	// never). Long sweeps enable it to catch model-state corruption as
	// an InvariantError near the offending cycle instead of silently
	// producing wrong CPIs; sim.Run also checks once after the final
	// write-buffer drain.
	SelfCheck uint64
}

// Base returns the paper's baseline architecture (Section 2): 4 KW
// direct-mapped split L1 with 4 W lines, write-back with a 4x4 W write
// buffer, a unified direct-mapped 256 KW L2 with 32 W lines and a
// 6-cycle access time, and 143/237-cycle clean/dirty memory penalties.
func Base() Config {
	baseTiming := BankTiming{Latency: 2, ChunkCycles: 4, PathWords: 4}
	return Config{
		L1I:             CacheGeom{SizeWords: 4 * 1024, LineWords: 4, Ways: 1},
		L1D:             CacheGeom{SizeWords: 4 * 1024, LineWords: 4, Ways: 1},
		WritePolicy:     WriteBack,
		WBEntries:       4,
		WBEntryWords:    4,
		L2Split:         false,
		L2U:             L2Bank{Geom: CacheGeom{SizeWords: 256 * 1024, LineWords: 32, Ways: 1}, Timing: baseTiming},
		MemCleanPenalty: 143,
		MemDirtyPenalty: 237,
		IMissWaitsForWB: true,
		LoadsPassStores: LPSNone,
		MMU:             mmu.Config{Colors: 64},
	}
}

// Optimized returns the paper's final architecture (Fig. 11): write-only
// L1-D with an 8-deep one-word write buffer, 8 W L1 lines and fetch, an
// asymmetric split L2 (32 KW two-cycle L2-I on the MCM, 256 KW six-cycle
// L2-D off it), concurrent I-refill, dirty-bit loads-pass-stores, and
// the L2 dirty buffer.
func Optimized() Config {
	c := Base()
	c.L1I.LineWords = 8
	c.L1D.LineWords = 8
	c.WritePolicy = WriteOnly
	c.WBEntries = 8
	c.WBEntryWords = 1
	c.L2Split = true
	c.L2I = L2Bank{
		Geom:   CacheGeom{SizeWords: 32 * 1024, LineWords: 32, Ways: 1},
		Timing: BankTiming{Latency: 2, ChunkCycles: 1, PathWords: 4},
	}
	c.L2D = L2Bank{
		Geom:   CacheGeom{SizeWords: 256 * 1024, LineWords: 32, Ways: 1},
		Timing: BankTiming{Latency: 6, ChunkCycles: 1, PathWords: 4},
	}
	c.L2DirtyBuffer = true
	c.IMissWaitsForWB = false
	c.LoadsPassStores = LPSDirtyBit
	return c
}

// SplitBank halves a unified bank into two identical banks for the
// symmetric split organizations of Fig. 6, implemented in hardware by
// steering on the high-order index bit.
func SplitBank(u L2Bank) (i, d L2Bank) {
	half := u
	half.Geom.SizeWords = u.Geom.SizeWords / 2
	return half, half
}

// Validate checks the configuration for implementability.
func (c *Config) Validate() error {
	if err := c.L1I.Validate("L1-I"); err != nil {
		return err
	}
	if err := c.L1D.Validate("L1-D"); err != nil {
		return err
	}
	if c.l1iFetch()%c.L1I.LineWords != 0 || c.l1dFetch()%c.L1D.LineWords != 0 {
		return fmt.Errorf("core: fetch size must be a multiple of the line size")
	}
	if c.WBEntries <= 0 || c.WBEntryWords <= 0 {
		return fmt.Errorf("core: bad write buffer shape %dx%dW", c.WBEntries, c.WBEntryWords)
	}
	if c.L2Split {
		if err := c.L2I.Geom.Validate("L2-I"); err != nil {
			return err
		}
		if err := c.L2D.Geom.Validate("L2-D"); err != nil {
			return err
		}
	} else {
		if err := c.L2U.Geom.Validate("L2"); err != nil {
			return err
		}
	}
	if c.MemCleanPenalty < 0 || c.MemDirtyPenalty < c.MemCleanPenalty {
		return fmt.Errorf("core: bad memory penalties clean=%d dirty=%d", c.MemCleanPenalty, c.MemDirtyPenalty)
	}
	if c.L2Split {
		if c.l1iFetch() > c.L2I.Geom.LineWords || c.l1dFetch() > c.L2D.Geom.LineWords {
			return fmt.Errorf("core: L1 fetch size exceeds the L2 line size")
		}
	} else {
		if c.l1iFetch() > c.L2U.Geom.LineWords || c.l1dFetch() > c.L2U.Geom.LineWords {
			return fmt.Errorf("core: L1 fetch size exceeds the L2 line size")
		}
		if !c.IMissWaitsForWB {
			return fmt.Errorf("core: concurrent I-refill requires a split L2 (the unified cache has one port)")
		}
	}
	if c.LoadsPassStores == LPSDirtyBit && c.WritePolicy != WriteOnly {
		return fmt.Errorf("core: the dirty-bit loads-pass-stores scheme requires the write-only policy")
	}
	if c.WritePolicy == WriteBack && c.LoadsPassStores != LPSNone {
		return fmt.Errorf("core: loads-pass-stores schemes apply to write-through policies only")
	}
	if err := c.MMU.Validate(); err != nil {
		return fmt.Errorf("core: MMU: %w", err)
	}
	return nil
}

// l1iFetch and l1dFetch apply the fetch-size defaults.
func (c *Config) l1iFetch() int {
	if c.L1IFetch == 0 {
		return c.L1I.LineWords
	}
	return c.L1IFetch
}

func (c *Config) l1dFetch() int {
	if c.L1DFetch == 0 {
		return c.L1D.LineWords
	}
	return c.L1DFetch
}

// writeThrough reports whether the policy sends every store to L2.
func (c *Config) writeThrough() bool { return c.WritePolicy != WriteBack }
