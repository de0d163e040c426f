package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// StageRow is one column of the staged-optimization histograms
// (Figs. 9 and 10): a labeled configuration and its CPI.
type StageRow struct {
	Label  string
	CPI    float64
	MemCPI float64
}

// Fig9 reproduces the Section 7/8 staging: the write-only base, the
// asymmetric physically split L2 (fast 32 KW L2-I on the MCM, 256 KW
// L2-D off it), and the 8 W fetch/line optimization. A diagnostic
// fourth column exchanges the L2-I and L2-D shapes, which the paper
// reports costs ~21%.
func Fig9(o Options) []StageRow {
	o = o.normalized()

	base := writeOnlyBase()

	split := writeOnlyBase()
	split.L2Split = true
	split.L2I = fastL2I()
	split.L2D = core.Base().L2U

	fetch8 := split
	fetch8.L1I.LineWords = 8
	fetch8.L1D.LineWords = 8
	// With 8 W lines the off-MCM L2-D is streamed at four words per
	// cycle after its six-cycle latency (Section 8).
	fetch8.L2D.Timing = core.BankTiming{Latency: 6, ChunkCycles: 1, PathWords: 4}

	exchanged := fetch8
	exchanged.L2I, exchanged.L2D = exchanged.L2D, exchanged.L2I

	stages := []labeledConfig{
		{"write-only base (unified 256KW L2)", base},
		{"+ split: 32KW 2-cyc L2-I, 256KW 6-cyc L2-D", split},
		{"+ 8W L1 lines and fetch", fetch8},
		{"(exchanged L2-I/L2-D shapes)", exchanged},
	}
	return runStages(stages, o, KernelSuite)
}

// runStages simulates labeled configurations over w (in parallel when
// o asks) and collects stage rows in order.
func runStages(stages []labeledConfig, o Options, w Workload) []StageRow {
	return sweep(o, len(stages), func(i int) StageRow {
		st := run(stages[i].cfg, o, w).Stats
		return StageRow{Label: stages[i].label, CPI: st.CPI(), MemCPI: st.MemoryCPI()}
	})
}

// Fig10 reproduces the Section 9 concurrency staging on top of the
// Fig. 9 design, over w: concurrent I-refill during write-buffer
// drain, loads passing stores (both the associative and the paper's
// dirty-bit scheme), and the L2 dirty buffer. PaperCalibrated's low
// write-miss and dirty-replacement rates are where the dirty-bit scheme
// earns the ~95%-of-associative figure the paper quotes.
func Fig10(o Options, w Workload) []StageRow {
	o = o.normalized()
	return runStages(fig10Stages(), o, w)
}

// optimizedSansConcurrency is the Fig. 9 third column: everything up to
// Section 8, with the Section 9 concurrency features still off.
func optimizedSansConcurrency() core.Config {
	cfg := core.Optimized()
	cfg.IMissWaitsForWB = true
	cfg.LoadsPassStores = core.LPSNone
	cfg.L2DirtyBuffer = false
	return cfg
}

// fig10Stages builds the cumulative Fig. 10 configurations.
func fig10Stages() []labeledConfig {
	wl := optimizedSansConcurrency()

	iwb := wl
	iwb.IMissWaitsForWB = false

	dwbAssoc := iwb
	dwbAssoc.LoadsPassStores = core.LPSAssociative

	dwbDirty := iwb
	dwbDirty.LoadsPassStores = core.LPSDirtyBit

	l2wb := dwbDirty
	l2wb.L2DirtyBuffer = true

	return []labeledConfig{
		{"WL base (Fig. 9 design)", wl},
		{"+ I-refill concurrent with WB drain", iwb},
		{"+ loads pass stores (associative match)", dwbAssoc},
		{"+ loads pass stores (dirty-bit scheme)", dwbDirty},
		{"+ L2 dirty buffer", l2wb},
	}
}

type labeledConfig struct {
	label string
	cfg   core.Config
}

// FormatStages renders staged columns with deltas.
func FormatStages(rows []StageRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %8s %8s %10s\n", "configuration", "CPI", "memory", "delta CPI")
	var prev float64
	for i, r := range rows {
		delta := ""
		if i > 0 {
			delta = fmt.Sprintf("%+.4f", r.CPI-prev)
		}
		fmt.Fprintf(&b, "%-44s %8.3f %8.3f %10s\n", r.Label, r.CPI, r.MemCPI, delta)
		prev = r.CPI
	}
	return b.String()
}
