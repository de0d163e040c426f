package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mmu"
)

// AblationRow is one labeled configuration of an ablation study.
type AblationRow struct {
	Label  string
	CPI    float64
	MemCPI float64
	L2Miss float64
}

// AblationWBDepth sweeps the write buffer depth on the write-only
// design (the paper chose 8 deep x 1 word to fit inside the MMU chip;
// this shows what the depth buys).
func AblationWBDepth(o Options) []AblationRow {
	o = o.normalized()
	depths := []int{1, 2, 4, 8, 16, 32}
	return sweep(o, len(depths), func(i int) AblationRow {
		cfg := writeOnlyBase()
		cfg.WBEntries = depths[i]
		return ablationRow(fmt.Sprintf("write buffer %2d x 1W", depths[i]), cfg, o)
	})
}

// ablationRow simulates one labeled configuration of an ablation study.
func ablationRow(label string, cfg core.Config, o Options) AblationRow {
	st := run(cfg, o, KernelSuite).Stats
	return AblationRow{
		Label:  label,
		CPI:    st.CPI(),
		MemCPI: st.MemoryCPI(),
		L2Miss: st.L2MissRatio(),
	}
}

// AblationWBOverlap toggles the drain-stream latency overlap, isolating
// the value of the paper's "a stream of writes may overlap one or both
// cycles of latency".
func AblationWBOverlap(o Options) []AblationRow {
	o = o.normalized()
	modes := []bool{false, true}
	return sweep(o, len(modes), func(i int) AblationRow {
		cfg := writeOnlyBase()
		cfg.WBNoOverlap = modes[i]
		label := "drains overlap L2 latency (paper)"
		if modes[i] {
			label = "drains serialized (no overlap)"
		}
		return ablationRow(label, cfg, o)
	})
}

// AblationColoring compares frame-allocation policies. Strict
// vpn-mod-colors coloring makes identically laid out processes collide
// in the physically indexed L2; the staggered policy (our default)
// keeps the intra-process invariant while spreading processes; random
// allocation abandons index predictability entirely.
func AblationColoring(o Options) []AblationRow {
	o = o.normalized()
	colorings := []mmu.Coloring{mmu.ColoringStaggered, mmu.ColoringStrict, mmu.ColoringRandom}
	return sweep(o, len(colorings), func(i int) AblationRow {
		cfg := writeOnlyBase()
		cfg.MMU.Coloring = colorings[i]
		return ablationRow("page coloring: "+colorings[i].String(), cfg, o)
	})
}

// AblationTLBPenalty charges a per-miss TLB penalty, quantifying the
// effect the paper's CPI accounting leaves out.
func AblationTLBPenalty(o Options) []AblationRow {
	o = o.normalized()
	penalties := []int{0, 10, 20, 40}
	return sweep(o, len(penalties), func(i int) AblationRow {
		cfg := writeOnlyBase()
		cfg.TLBMissPenalty = penalties[i]
		return ablationRow(fmt.Sprintf("TLB miss penalty %2d cycles", penalties[i]), cfg, o)
	})
}

// FormatAblation renders an ablation table.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %8s %8s %10s\n", "configuration", "CPI", "memory", "L2 miss")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-38s %8.3f %8.3f %10.4f\n", r.Label, r.CPI, r.MemCPI, r.L2Miss)
	}
	return b.String()
}
