// Package stackdist is the one-pass multi-configuration sweep engine:
// a Mattson stack-distance analyzer that replays a multiprogrammed
// trace once and produces miss-ratio curves for an entire
// size × associativity grid of LRU set-associative caches.
//
// The classic observation (Mattson et al., 1970) is that LRU caches of
// one line size form an inclusive hierarchy: a reference that hits in a
// cache hits in every larger cache of the same family. Generalized to
// set-associative caches, a reference's "stack distance" in a cache
// with S sets is its depth in the per-set LRU stack, and the reference
// hits in every cache with S sets and more than that many ways. One
// pass that records a histogram of stack distances per distinct set
// count therefore yields the exact LRU hit count of every (size, ways)
// point of the grid at once — O(configs × trace) sweeps collapse to
// O(trace).
//
// The analyzer implements sched.Target, so the round-robin scheduler
// multiplexes the packed per-process recordings onto it exactly as it
// does onto the cycle-accurate core.System, stepping it straight off
// the packed words (StepScan) without decoding events into a buffer:
// same PID
// assignment, same syscall context switches, same MMU page coloring,
// and therefore the same physical reference stream. Its clock is
// nominal (one cycle per instruction plus the trace's own CPU stalls),
// which reproduces the simulator's interleaving exactly when context
// switches are syscall-driven, and approximately under time-slice
// expiry (see EXPERIMENTS.md for the exactness domain).
//
// Reference classes: the L1-I and L1-D streams are analyzed directly;
// one fixed L1 configuration — the "filter" — generates the
// secondary-cache reference stream, which is analyzed three ways
// (unified, instruction-only, data-only) so both unified and split L2
// organizations come out of the same pass. The filter is core.Filter:
// core's one untimed model of the L1 pair, the transitions functional
// warming runs, with this package's L2 classes as its L2 side; this
// package holds no write-policy logic. Reads and writes are binned
// separately for write-policy screening, and every histogram is also
// recorded per process. Config.Classes restricts a pass to the classes
// its caller reads; the others are neither built nor fed.
package stackdist

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// Class identifies one analyzed reference stream.
type Class int

const (
	// ClassL1I is the instruction-fetch stream (every instruction).
	ClassL1I Class = iota
	// ClassL1D is the data stream (every load and store).
	ClassL1D
	// ClassL2U is the secondary-cache stream behind the filter L1,
	// instruction and data sides merged — the unified organization.
	ClassL2U
	// ClassL2I is the instruction side of the L2 stream alone — one
	// bank of a split organization.
	ClassL2I
	// ClassL2D is the data side of the L2 stream alone.
	ClassL2D

	numClasses
)

// ClassSet selects the reference classes a pass analyzes: bit c
// selects Class c. The zero value selects all of them.
type ClassSet uint8

// allClasses has every class's bit set.
const allClasses ClassSet = 1<<numClasses - 1

// ClassesOf returns the set of the given classes.
func ClassesOf(cs ...Class) ClassSet {
	var s ClassSet
	for _, c := range cs {
		s |= 1 << c
	}
	return s
}

// Has reports whether the set selects c.
func (s ClassSet) Has(c Class) bool { return s == 0 || s&(1<<c) != 0 }

// String names the class like the paper's figures.
func (c Class) String() string {
	switch c {
	case ClassL1I:
		return "L1-I"
	case ClassL1D:
		return "L1-D"
	case ClassL2U:
		return "L2"
	case ClassL2I:
		return "L2-I"
	case ClassL2D:
		return "L2-D"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// GridSpec describes one class's size × associativity grid. Every
// (size, ways) pair must describe an implementable set-associative
// cache (power-of-two set count), exactly like core.CacheGeom.
type GridSpec struct {
	// LineWords is the line length in words, shared by the whole grid
	// (stack distances are line-granular, so one pass covers one line
	// size).
	LineWords int
	// SizesWords are the swept total capacities in words.
	SizesWords []int
	// Ways are the swept associativities. The per-set stacks are
	// truncated at the largest way count that maps to each set count,
	// so small grids stay cheap: the paper's 1/2-way grid probes at
	// most two stack entries per reference.
	Ways []int
}

// validate reports whether the grid is analyzable.
func (g GridSpec) validate(name string) error {
	if !powerOfTwo(g.LineWords) {
		return fmt.Errorf("stackdist: %s: line %dW not a positive power of two", name, g.LineWords)
	}
	if len(g.SizesWords) == 0 || len(g.Ways) == 0 {
		return fmt.Errorf("stackdist: %s: empty grid (need at least one size and one way count)", name)
	}
	for _, w := range g.Ways {
		if w <= 0 {
			return fmt.Errorf("stackdist: %s: nonpositive associativity %d", name, w)
		}
	}
	for _, size := range g.SizesWords {
		for _, w := range g.Ways {
			if size <= 0 || size%(g.LineWords*w) != 0 {
				return fmt.Errorf("stackdist: %s: size %dW not divisible by line %dW x ways %d", name, size, g.LineWords, w)
			}
			if !powerOfTwo(size / (g.LineWords * w)) {
				return fmt.Errorf("stackdist: %s: set count %d (size %dW, %d-way) not a power of two", name, size/(g.LineWords*w), size, w)
			}
		}
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Config parameterizes an Analyzer.
type Config struct {
	// L1I, L1D, and L2 are the three grids the pass evaluates. The L2
	// grid's sizes are bank sizes: a unified organization of total
	// size S is looked up at S in ClassL2U, a symmetric split
	// organization at S/2 in ClassL2I and ClassL2D.
	L1I, L1D, L2 GridSpec

	// FilterL1I and FilterL1D fix the one primary-cache configuration
	// whose misses generate the L2 reference stream (zero value: the
	// paper's base 4 KW direct-mapped split L1 with 4 W lines).
	// FilterPolicy selects the write policy of the filter's data side;
	// the filter is functional only — hits, misses, allocations, and
	// write-back/write-through traffic are modeled, timing is not.
	FilterL1I, FilterL1D core.CacheGeom
	FilterPolicy         core.WritePolicy

	// MMU configures address translation; the zero value is the base
	// architecture's 64-color staggered MMU, matching core.Base().
	MMU mmu.Config

	// Classes selects the classes the pass builds stacks for and feeds
	// (zero value: all five). The filter runs in full whatever the set,
	// so Instructions, NominalCycles and Filter do not depend on it; an
	// unselected class's ClassResult is the zero value. Every grid is
	// validated, selected or not.
	Classes ClassSet
}

// withDefaults fills the zero-value filter geometries from the base
// architecture.
func (cfg Config) withDefaults() Config {
	base := core.Base()
	if cfg.FilterL1I == (core.CacheGeom{}) {
		cfg.FilterL1I = base.L1I
	}
	if cfg.FilterL1D == (core.CacheGeom{}) {
		cfg.FilterL1D = base.L1D
	}
	return cfg
}

// Validate checks the configuration (after applying defaults).
func (cfg Config) Validate() error {
	if err := cfg.L1I.validate("L1-I grid"); err != nil {
		return err
	}
	if err := cfg.L1D.validate("L1-D grid"); err != nil {
		return err
	}
	if err := cfg.L2.validate("L2 grid"); err != nil {
		return err
	}
	if err := cfg.FilterL1I.Validate("filter L1-I"); err != nil {
		return fmt.Errorf("stackdist: %w", err)
	}
	if err := cfg.FilterL1D.Validate("filter L1-D"); err != nil {
		return fmt.Errorf("stackdist: %w", err)
	}
	if cfg.FilterPolicy < core.WriteBack || cfg.FilterPolicy > core.Subblock {
		return fmt.Errorf("stackdist: unknown filter write policy %d", int(cfg.FilterPolicy))
	}
	// A filter refill fetches one L1 line; it must land inside one L2
	// line so each miss is a single L2-line reference.
	if cfg.FilterL1I.LineWords > cfg.L2.LineWords || cfg.FilterL1D.LineWords > cfg.L2.LineWords {
		return fmt.Errorf("stackdist: filter L1 line exceeds the L2 grid line (%dW/%dW > %dW)",
			cfg.FilterL1I.LineWords, cfg.FilterL1D.LineWords, cfg.L2.LineWords)
	}
	if err := cfg.MMU.Validate(); err != nil {
		return fmt.Errorf("stackdist: MMU: %w", err)
	}
	if cfg.Classes&^allClasses != 0 {
		return fmt.Errorf("stackdist: class set %#x selects an unknown class", uint8(cfg.Classes))
	}
	return nil
}

// log2 returns floor(log2(v)) for v >= 1 (0 for v == 0).
func log2(v uint64) uint {
	if v == 0 {
		return 0
	}
	return uint(bits.Len64(v)) - 1
}

// noLine marks an empty stack slot (and the "no previous fetch" state
// of the analyzer's fetch line run). Line addresses and fetch keys are
// tiny by comparison, so it can never collide with a real one.
const noLine = ^uint64(0)

// maxPIDs bounds the per-process histograms: mmu.PID is 8 bits.
const maxPIDs = 256

// gridStacks holds the truncated per-set LRU stacks and the distance
// histograms for one distinct set count of a class's grid.
//
// The stack for each set keeps the depth most-recently-used lines,
// MRU first. A reference found at depth d hits in every cache with
// this set count and more than d ways; a reference not found within
// depth — whether it was pushed off the truncated stack or never seen
// — misses in all of them, and lands in the overflow bucket (index
// depth of the histograms). depth is the largest way count the grid
// asks about at this set count, so truncation loses nothing. Bucket 0
// counts only the references whose walk stopped at this grid (see
// classAnalyzer.access); the coarser grids' stops are added on read.
type gridStacks struct {
	sets    int
	setMask uint64
	depth   int
	stacks  []uint64 // sets × depth, MRU first; noLine when empty
	reads   []uint64 // depth+1 buckets; [depth] = miss at every tracked ways
	writes  []uint64
	perPID  []uint64 // maxPIDs × (depth+1), reads+writes merged
}

func newGridStacks(sets, depth int) *gridStacks {
	g := &gridStacks{
		sets:    sets,
		setMask: uint64(sets) - 1,
		depth:   depth,
		stacks:  make([]uint64, sets*depth),
		reads:   make([]uint64, depth+1),
		writes:  make([]uint64, depth+1),
		perPID:  make([]uint64, maxPIDs*(depth+1)),
	}
	for i := range g.stacks {
		g.stacks[i] = noLine
	}
	return g
}

// access records one reference to line, updates the set's stack, and
// reports whether the line was already on top of it (distance 0).
// This is the analyzer's hottest loop; the set arithmetic is hoisted
// and the scan runs over a subslice like core's cache.find.
func (g *gridStacks) access(line uint64, write bool, pid int) bool {
	base := int(line&g.setMask) * g.depth
	st := g.stacks[base : base+g.depth]
	d := 0
	if st[0] != line {
		d = g.depth
		for i := 1; i < len(st); i++ {
			if st[i] == line {
				d = i
				break
			}
		}
		// Move to front: everything above the hit depth shifts down one.
		if d == g.depth {
			copy(st[1:], st[:g.depth-1])
		} else {
			copy(st[1:], st[:d])
		}
		st[0] = line
	}
	g.count(d, write, pid)
	return d == 0
}

// count adds one reference at distance d to the histograms.
func (g *gridStacks) count(d int, write bool, pid int) {
	if write {
		g.writes[d]++
	} else {
		g.reads[d]++
	}
	g.perPID[pid*(g.depth+1)+d]++
}

// classAnalyzer analyzes one reference class: the same address stream
// against every distinct set count its grid needs.
type classAnalyzer struct {
	class     Class
	lineWords int
	offBits   uint
	grids     []*gridStacks // ascending set count
}

func newClassAnalyzer(class Class, spec GridSpec) *classAnalyzer {
	c := &classAnalyzer{
		class:     class,
		lineWords: spec.LineWords,
		offBits:   log2(uint64(spec.LineWords * trace.WordBytes)),
	}
	// Collect the distinct set counts of the grid; each tracks stacks
	// deep enough for the largest associativity asked about at that
	// set count.
	type setCount struct{ sets, depth int }
	var scs []setCount
	for _, size := range spec.SizesWords {
		for _, w := range spec.Ways {
			sets := size / (spec.LineWords * w)
			found := false
			for i := range scs {
				if scs[i].sets == sets {
					if w > scs[i].depth {
						scs[i].depth = w
					}
					found = true
					break
				}
			}
			if !found {
				scs = append(scs, setCount{sets, w})
			}
		}
	}
	sort.Slice(scs, func(i, j int) bool { return scs[i].sets < scs[j].sets })
	c.grids = make([]*gridStacks, len(scs))
	for i, sc := range scs {
		c.grids[i] = newGridStacks(sc.sets, sc.depth)
	}
	return c
}

// access records one reference to the line containing addr.
//
// The walk runs from the fewest sets to the most and stops at the
// first grid whose set already holds the line on top. That is exact:
// set counts are powers of two, so each grid's sets refine the
// previous grid's — the line's set in a finer grid holds a subset of
// the lines of its coarser set. The line is the most recent reference
// among the coarse set's lines, hence among any subset of them, so it
// is on top of every finer stack too and no finer stack would change.
// The stop counts only in the stopping grid's bucket 0; snapshot
// prefix-sums bucket 0 across the grids to credit the finer ones. A
// repeat of the class's previous line stops at the first grid.
func (c *classAnalyzer) access(addr uint64, write bool, pid int) {
	line := addr >> c.offBits
	for _, g := range c.grids {
		if g.access(line, write, pid) {
			return
		}
	}
}
