package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stackdist"
	"repro/internal/workload"
)

// This file wires the one-pass stack-distance engine
// (internal/stackdist) into the experiment registry as a screening
// fidelity: one analyzer pass replaces the config-by-config replays of
// the Fig. 6–8 grids. Screening miss ratios are the analyzer's exact
// LRU counts; screening CPIs are estimates assembled from the filter
// L1's traffic and the grid's miss counts (nominal cycles + refill and
// memory penalties), good for ranking the grid, not for quoting —
// which is what the exact cross-validation in FastSweepValidate is
// for.

// ScreeningGrid is the stackdist configuration covering the paper's
// design-space figures: the Section 5 L1 sizes at 1 and 2 ways, and L2
// bank sizes spanning Fig. 6's unified totals (16 KW – 1024 KW) and
// the split/speed-size banks (8 KW – 512 KW). The filter L1 is the
// write-only base design the Fig. 6–8 sweeps are built on.
func ScreeningGrid() stackdist.Config {
	return stackdist.Config{
		L1I: stackdist.GridSpec{
			LineWords:  4,
			SizesWords: []int{1 * 1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024},
			Ways:       []int{1, 2},
		},
		L1D: stackdist.GridSpec{
			LineWords:  4,
			SizesWords: []int{1 * 1024, 2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024},
			Ways:       []int{1, 2},
		},
		L2: stackdist.GridSpec{
			LineWords: 32,
			SizesWords: []int{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024,
				128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024},
			Ways: []int{1, 2},
		},
		FilterPolicy: core.WriteOnly,
	}
}

// L1Point is one point of a screening L1 miss-ratio curve.
type L1Point struct {
	SizeWords, Ways int
	MissRatio       float64
}

// FastSweepResult is one screening pass over one workload: the raw
// analyzer result plus the derived paper-shaped tables.
type FastSweepResult struct {
	// Workload is the workload the pass analyzed.
	Workload Workload
	// Res is the raw one-pass result (histograms, filter counts).
	Res *stackdist.Result
	// L1I and L1D are the primary-cache miss-ratio curves.
	L1I, L1D []L1Point
	// Grid is the Fig. 6 size × organization matrix: CPI is the
	// screening estimate, MissRatio the analyzer's exact LRU ratio.
	Grid []Fig6Row
	// Fig7 and Fig8 are the speed-size trade-off estimates (CPI
	// contribution of the swept side, like the exact figures).
	Fig7, Fig8 []SpeedSizeRow
}

// FastSweep screens the design space over the paper-calibrated
// workload: one pass, every grid point of ScreeningGrid.
func FastSweep(o Options) *FastSweepResult { return screen(o, PaperCalibrated, 0) }

// screen is one screening pass over w analyzing only the given classes
// (zero: all). The tables of unselected classes come out empty.
func screen(o Options, w Workload, classes stackdist.ClassSet) *FastSweepResult {
	o = o.normalized()
	grid := ScreeningGrid()
	grid.Classes = classes
	res, _, err := stackdist.Analyze(grid, workload.ReplayProcesses(w.record(o)), o.schedConfig())
	res = must(res, err)
	fs := &FastSweepResult{Workload: w, Res: res}
	for _, size := range grid.L1I.SizesWords {
		for _, ways := range grid.L1I.Ways {
			if mr, ok := res.Class(stackdist.ClassL1I).MissRatio(size, ways); ok {
				fs.L1I = append(fs.L1I, L1Point{size, ways, mr})
			}
		}
	}
	for _, size := range grid.L1D.SizesWords {
		for _, ways := range grid.L1D.Ways {
			if mr, ok := res.Class(stackdist.ClassL1D).MissRatio(size, ways); ok {
				fs.L1D = append(fs.L1D, L1Point{size, ways, mr})
			}
		}
	}
	for _, size := range Fig6Sizes {
		for _, org := range Fig6Orgs {
			if row, ok := screenFig6Row(res, size, org); ok {
				fs.Grid = append(fs.Grid, row)
			}
		}
	}
	instr := float64(res.Instructions)
	penalty := float64(core.Base().MemCleanPenalty)
	for _, t := range SpeedSizeTimes {
		for _, size := range SpeedSizeSizes {
			if gc, ok := res.Class(stackdist.ClassL2I).Counts(size, 1); ok {
				fs.Fig7 = append(fs.Fig7, SpeedSizeRow{
					SizeWords:  size,
					AccessTime: t,
					CPI:        (float64(res.Filter.L1IMisses)*float64(t) + float64(gc.ReadMisses)*penalty) / instr,
				})
			}
			if gc, ok := res.Class(stackdist.ClassL2D).Counts(size, 1); ok {
				fs.Fig8 = append(fs.Fig8, SpeedSizeRow{
					SizeWords:  size,
					AccessTime: t,
					CPI:        (float64(res.Filter.L1DReadMisses)*float64(t) + float64(gc.ReadMisses)*penalty) / instr,
				})
			}
		}
	}
	return fs
}

// screenFig6Row estimates one Fig. 6 grid point from the pass. The
// miss ratio is the analyzer's exact LRU count for the organization;
// the CPI estimate charges nominal cycles, L1 refills at the bank's
// access time, the write-only policy's second write-miss cycle, and a
// clean-memory penalty per L2 read miss.
func screenFig6Row(res *stackdist.Result, size int, org L2Org) (Fig6Row, bool) {
	access := 6
	if org.Ways == 2 {
		access = 7
	}
	var gc stackdist.GridCounts
	var ok bool
	if org.Split {
		gc, ok = res.SplitL2Counts(size/2, org.Ways)
	} else {
		gc, ok = res.Class(stackdist.ClassL2U).Counts(size, org.Ways)
	}
	if !ok {
		return Fig6Row{}, false
	}
	instr := float64(res.Instructions)
	f := res.Filter
	cpi := float64(res.NominalCycles)/instr +
		(float64(f.L1IMisses)+float64(f.L1DReadMisses))*float64(access)/instr +
		float64(f.L1DWriteMisses)/instr +
		float64(gc.ReadMisses)*float64(core.Base().MemCleanPenalty)/instr
	return Fig6Row{SizeWords: size, Org: org, CPI: cpi, MissRatio: gc.MissRatio()}, true
}

// ValidationRow pairs one screening grid point with an exact
// simulation of the same configuration over the same recording.
type ValidationRow struct {
	Row            Fig6Row // the screening estimate
	ExactCPI       float64
	ExactMissRatio float64
}

// FastSweepValidate cross-validates the top k screening rows (ranked
// by estimated CPI) against the cycle-accurate simulator, replaying
// the same recorded workload the pass analyzed. The interesting
// comparison is the miss ratio, where the analyzer's LRU model is
// exact up to trace interleaving; the CPI column shows how far the
// screening estimate sits from cycle-accurate truth.
func FastSweepValidate(o Options, fs *FastSweepResult, k int) []ValidationRow {
	o = o.normalized()
	ranked := append([]Fig6Row(nil), fs.Grid...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].CPI < ranked[j].CPI })
	if k > len(ranked) {
		k = len(ranked)
	}
	return sweep(o, k, func(i int) ValidationRow {
		row := ranked[i]
		st := run(fig6Config(row.SizeWords, row.Org), o, fs.Workload).Stats
		return ValidationRow{Row: row, ExactCPI: st.CPI(), ExactMissRatio: st.L2MissRatio()}
	})
}

// FormatL1Curves renders one side's screening miss-ratio curve.
func FormatL1Curves(side string, points []L1Point) string {
	ways := []int{1, 2}
	var b strings.Builder
	fmt.Fprintf(&b, "%s miss ratio\n%-8s", side, "size")
	for _, w := range ways {
		fmt.Fprintf(&b, " %8d-way", w)
	}
	b.WriteString("\n")
	var sizes []int
	for _, p := range points {
		if len(sizes) == 0 || sizes[len(sizes)-1] != p.SizeWords {
			sizes = append(sizes, p.SizeWords)
		}
	}
	for _, size := range sizes {
		fmt.Fprintf(&b, "%-8s", kwLabel(size))
		for _, w := range ways {
			for _, p := range points {
				if p.SizeWords == size && p.Ways == w {
					fmt.Fprintf(&b, " %12.4f", p.MissRatio)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFastSweep renders a screening pass the way the exact
// experiments render Figs. 6–8 and Table 2.
func FormatFastSweep(fs *FastSweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "one-pass screening, %s (%d instructions, one replay)\n\n",
		fs.Workload.Label, fs.Res.Instructions)
	b.WriteString(FormatL1Curves("L1-I", fs.L1I))
	b.WriteString("\n")
	b.WriteString(FormatL1Curves("L1-D", fs.L1D))
	b.WriteString("\nestimated " + FormatFig6(fs.Grid))
	b.WriteString("\n" + FormatTable2(fs.Grid))
	b.WriteString("\n" + FormatSpeedSize("L2-I (screening)", fs.Fig7))
	b.WriteString("\n" + FormatSpeedSize("L2-D (screening)", fs.Fig8))
	return b.String()
}

// FormatValidation renders screening-vs-exact rows.
func FormatValidation(rows []ValidationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-14s %10s %10s %10s %10s %10s\n",
		"size", "org", "est CPI", "exact CPI", "scr miss", "exact miss", "miss err")
	for _, v := range rows {
		fmt.Fprintf(&b, "%-8s %-14s %10.3f %10.3f %10.4f %10.4f %+10.4f\n",
			kwLabel(v.Row.SizeWords), v.Row.Org.String(), v.Row.CPI, v.ExactCPI,
			v.Row.MissRatio, v.ExactMissRatio, v.Row.MissRatio-v.ExactMissRatio)
	}
	return b.String()
}

// compareGrid runs both fidelities over the paper-calibrated
// recording's Fig. 6 grid and reports the deltas.
func compareGrid(o Options) string {
	fs := FastSweep(o)
	rows := FastSweepValidate(o, fs, len(fs.Grid))
	return fmt.Sprintf("screening vs exact, %s (%d grid points, one pass vs one run each):\n",
		fs.Workload.Label, len(rows)) + FormatValidation(rows)
}

// compareSpeedSize renders screening minus exact CPI contributions.
func compareSpeedSize(side string, screening, exact []SpeedSizeRow) string {
	deltas := make([]SpeedSizeRow, 0, len(screening))
	for _, s := range screening {
		if e, ok := SpeedSizeAt(exact, s.SizeWords, s.AccessTime); ok {
			deltas = append(deltas, SpeedSizeRow{
				SizeWords:  s.SizeWords,
				AccessTime: s.AccessTime,
				CPI:        s.CPI - e.CPI,
			})
		}
	}
	return FormatSpeedSize(side+" (screening - exact)", deltas)
}
