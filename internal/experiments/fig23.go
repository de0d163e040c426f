package experiments

import (
	"fmt"
	"strings"
)

// Fig2Row is one point of the multiprogramming-level study.
type Fig2Row struct {
	Level   int
	L1IMiss float64
	L1DMiss float64
	L2Miss  float64
	CPI     float64
}

// Fig2 sweeps the multiprogramming level over the base architecture
// (paper: L1 ratios barely move; the L2 miss ratio grows substantially
// with level but is a small absolute number).
func Fig2(o Options) []Fig2Row {
	o = o.normalized()
	levels := []int{1, 2, 4, 8, 16}
	return sweep(o, len(levels), func(i int) Fig2Row {
		lo := o
		lo.Level = levels[i]
		st := run(baseConfig(), lo, KernelSuite).Stats
		return Fig2Row{
			Level:   levels[i],
			L1IMiss: st.L1IMissRatio(),
			L1DMiss: st.L1DMissRatio(),
			L2Miss:  st.L2MissRatio(),
			CPI:     st.CPI(),
		}
	})
}

// FormatFig2 renders the sweep.
func FormatFig2(rows []Fig2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %8s\n", "Level", "L1-I miss", "L1-D miss", "L2 miss", "CPI")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %10.4f %10.4f %10.4f %8.3f\n", r.Level, r.L1IMiss, r.L1DMiss, r.L2Miss, r.CPI)
	}
	return b.String()
}

// Fig3Row is one point of the time-slice study.
type Fig3Row struct {
	TimeSlice uint64
	L1IMiss   float64
	L1DMiss   float64
	L2Miss    float64
	CPI       float64
}

// Fig3 sweeps the context-switch interval at multiprogramming level 8
// (paper: performance improves markedly with longer slices; 500,000
// cycles is the chosen compromise).
func Fig3(o Options) []Fig3Row {
	o = o.normalized()
	slices := []uint64{10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000}
	return sweep(o, len(slices), func(i int) Fig3Row {
		so := o
		so.TimeSlice = slices[i]
		st := run(baseConfig(), so, KernelSuite).Stats
		return Fig3Row{
			TimeSlice: slices[i],
			L1IMiss:   st.L1IMissRatio(),
			L1DMiss:   st.L1DMissRatio(),
			L2Miss:    st.L2MissRatio(),
			CPI:       st.CPI(),
		}
	})
}

// FormatFig3 renders the sweep.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %8s\n", "Slice(cyc)", "L1-I miss", "L1-D miss", "L2 miss", "CPI")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %10.4f %10.4f %10.4f %8.3f\n", r.TimeSlice, r.L1IMiss, r.L1DMiss, r.L2Miss, r.CPI)
	}
	return b.String()
}
