package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// SummaryRow compares the Section 2 base architecture against the
// fully optimized Fig. 11 architecture on one workload.
type SummaryRow struct {
	Workload   string
	BaseCPI    float64
	OptCPI     float64
	MemImprove float64 // fractional memory-CPI improvement
	TotImprove float64 // fractional total-CPI improvement
}

// Summary reproduces the paper's bottom line: the staged optimizations
// improve memory-system performance by 54.5% and total performance by
// 13.7% (for its workload). Measured on both of ours.
func Summary(o Options) []SummaryRow {
	o = o.normalized()
	type cell struct {
		workload string
		w        Workload
		cfg      core.Config
	}
	// Four independent runs: 2 workloads x {base, optimized}.
	cells := []cell{
		{"kernel suite", KernelSuite, core.Base()},
		{"kernel suite", KernelSuite, core.Optimized()},
		{"paper-calibrated", PaperCalibrated, core.Base()},
		{"paper-calibrated", PaperCalibrated, core.Optimized()},
	}
	stats := sweep(o, len(cells), func(i int) core.Stats {
		return run(cells[i].cfg, o, cells[i].w).Stats
	})
	rows := make([]SummaryRow, 0, 2)
	for i := 0; i < len(cells); i += 2 {
		base, opt := stats[i], stats[i+1]
		rows = append(rows, SummaryRow{
			Workload:   cells[i].workload,
			BaseCPI:    base.CPI(),
			OptCPI:     opt.CPI(),
			MemImprove: 1 - opt.MemoryCPI()/base.MemoryCPI(),
			TotImprove: 1 - opt.CPI()/base.CPI(),
		})
	}
	return rows
}

// FormatSummary renders the comparison.
func FormatSummary(rows []SummaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %10s %14s %14s\n",
		"workload", "base CPI", "opt CPI", "memory gain", "total gain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.3f %10.3f %13.1f%% %13.1f%%\n",
			r.Workload, r.BaseCPI, r.OptCPI, r.MemImprove*100, r.TotImprove*100)
	}
	b.WriteString("(paper: 54.5% memory-system and 13.7% total improvement)\n")
	return b.String()
}
