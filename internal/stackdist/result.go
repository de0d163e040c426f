package stackdist

// GridCounts are the reference counts of one (size, ways) grid point:
// how many reads and writes the class saw, and how many of each miss
// in an LRU cache of that geometry. Counts are integers, not ratios,
// so validation against the exact simulator can demand equality.
type GridCounts struct {
	Reads, Writes           uint64
	ReadMisses, WriteMisses uint64
}

// Accesses is the total reference count.
func (g GridCounts) Accesses() uint64 { return g.Reads + g.Writes }

// Misses is the total miss count.
func (g GridCounts) Misses() uint64 { return g.ReadMisses + g.WriteMisses }

// MissRatio is Misses/Accesses (0 for an idle grid point).
func (g GridCounts) MissRatio() float64 {
	if g.Accesses() == 0 {
		return 0
	}
	return float64(g.Misses()) / float64(g.Accesses())
}

// Histogram is the stack-distance histogram for one set count of a
// class's grid: bucket d counts references found at LRU depth d in
// their set; the final bucket (index Depth) counts references beyond
// every tracked depth, including cold misses. A (sets, ways) cache
// misses exactly the references in buckets ways..Depth.
type Histogram struct {
	Sets   int
	Depth  int
	Reads  []uint64
	Writes []uint64
	// PerPID[p][d] is the merged read+write bucket d for process p
	// (indexed by scheduler PID; index 0 is unused under the
	// round-robin scheduler, whose PIDs start at 1).
	PerPID [][]uint64
}

// ClassResult is one reference class's full grid: a histogram per
// distinct set count, sorted by set count.
type ClassResult struct {
	Class     Class
	LineWords int
	Grids     []Histogram
}

// Counts returns the reference counts for an LRU cache of sizeWords
// capacity and the given associativity, or false if that geometry was
// not in the analyzed grid.
func (c *ClassResult) Counts(sizeWords, ways int) (GridCounts, bool) {
	if ways <= 0 || c.LineWords <= 0 || sizeWords <= 0 || sizeWords%(c.LineWords*ways) != 0 {
		return GridCounts{}, false
	}
	sets := sizeWords / (c.LineWords * ways)
	for gi := range c.Grids {
		g := &c.Grids[gi]
		if g.Sets != sets || g.Depth < ways {
			continue
		}
		var gc GridCounts
		for d := 0; d <= g.Depth; d++ {
			r, w := g.Reads[d], g.Writes[d]
			gc.Reads += r
			gc.Writes += w
			if d >= ways {
				gc.ReadMisses += r
				gc.WriteMisses += w
			}
		}
		return gc, true
	}
	return GridCounts{}, false
}

// MissRatio is the miss ratio at (sizeWords, ways), or false if the
// geometry was not analyzed.
func (c *ClassResult) MissRatio(sizeWords, ways int) (float64, bool) {
	gc, ok := c.Counts(sizeWords, ways)
	if !ok {
		return 0, false
	}
	return gc.MissRatio(), true
}

// Result is one pass's complete output: every class's grid, the
// filter L1's traffic counts, and the pass's nominal clock.
type Result struct {
	Instructions  uint64
	NominalCycles uint64
	Classes       [numClasses]ClassResult
	Filter        FilterStats
}

// Class returns the grid for one reference class (nil for a value
// outside the Class enumeration).
func (r *Result) Class(c Class) *ClassResult {
	if c < 0 || c >= numClasses {
		return nil
	}
	return &r.Classes[c]
}

// SplitL2Counts combines the instruction- and data-bank grids into the
// counts of a symmetric split L2 whose banks each hold bankSizeWords.
func (r *Result) SplitL2Counts(bankSizeWords, ways int) (GridCounts, bool) {
	ic, ok := r.Classes[ClassL2I].Counts(bankSizeWords, ways)
	if !ok {
		return GridCounts{}, false
	}
	dc, ok := r.Classes[ClassL2D].Counts(bankSizeWords, ways)
	if !ok {
		return GridCounts{}, false
	}
	return GridCounts{
		Reads:       ic.Reads + dc.Reads,
		Writes:      ic.Writes + dc.Writes,
		ReadMisses:  ic.ReadMisses + dc.ReadMisses,
		WriteMisses: ic.WriteMisses + dc.WriteMisses,
	}, true
}

// Result snapshots the analyzer's histograms. It only reads analyzer
// state, so it may be called mid-pass without changing the final
// result; the returned slices are copies and stay stable if the pass
// continues.
func (a *Analyzer) Result() *Result {
	res := &Result{
		Instructions:  a.instructions,
		NominalCycles: a.now,
		Filter:        a.counts,
	}
	for i, c := range a.classes {
		res.Classes[i] = c.snapshot(a.maxPID)
	}
	return res
}

// snapshot copies the class's histograms, trimming per-process rows to
// the highest PID seen. A walk that stops at a grid puts the reference
// at distance 0 in every finer grid too, so each grid's bucket 0 —
// totals and per-process rows alike — is the running sum of bucket 0
// over the grids up to and including it.
func (c *classAnalyzer) snapshot(maxPID int) ClassResult {
	cr := ClassResult{
		Class:     c.class,
		LineWords: c.lineWords,
		Grids:     make([]Histogram, len(c.grids)),
	}
	var reads0, writes0 uint64
	pid0 := make([]uint64, maxPID+1)
	for i, g := range c.grids {
		h := Histogram{
			Sets:   g.sets,
			Depth:  g.depth,
			Reads:  append([]uint64(nil), g.reads...),
			Writes: append([]uint64(nil), g.writes...),
			PerPID: make([][]uint64, maxPID+1),
		}
		reads0 += g.reads[0]
		writes0 += g.writes[0]
		h.Reads[0], h.Writes[0] = reads0, writes0
		stride := g.depth + 1
		for p := 1; p <= maxPID; p++ { // PID 0 is never scheduled
			row := append([]uint64(nil), g.perPID[p*stride:(p+1)*stride]...)
			pid0[p] += row[0]
			row[0] = pid0[p]
			h.PerPID[p] = row
		}
		cr.Grids[i] = h
	}
	return cr
}
