package experiments

import (
	"fmt"
	"strings"
)

// L1SizeRow is one point of the Section 5 primary-cache size study.
// The paper's argument is about *time*, not CPI: growing the primary
// cache past 4 KW needs more SRAMs and longer MCM interconnect, so the
// cycle time grows enough to nullify the lower miss ratio (and a
// set-associative L1-D forces the tags off the MMU chip, almost
// doubling the cycle time).
type L1SizeRow struct {
	SizeWords int
	Ways      int
	CycleNS   float64 // modeled cycle time
	CPI       float64
	TPI       float64 // time per instruction = CPI x cycle, normalized to the base
}

// l1CycleNS models the cycle time of an L1 configuration, following the
// paper's technology discussion: the CPU's critical path is just under
// 4 ns; inter-chip propagation and driver loading contribute up to 50%
// of the cache access time and grow with cache area on the MCM
// ([Mud+91]); virtual tags for an oversized L1-I add translation time;
// a set-associative L1-D moves the tags off the MMU and "almost
// doubles" the system cycle time.
func l1CycleNS(sizeWords, ways int) float64 {
	cycle := 4.0
	// Each doubling beyond 4 KW adds SRAMs and interconnect length.
	for s := 4 * 1024; s < sizeWords; s *= 2 {
		cycle += 0.8
	}
	if ways > 1 {
		cycle *= 1.9
	}
	return cycle
}

// L1SizeSweep are the Section 5 candidate L1 shapes.
var L1SizeSweep = []struct {
	SizeWords int
	Ways      int
}{
	{2 * 1024, 1},
	{4 * 1024, 1}, // the page-size-constrained base choice
	{8 * 1024, 1},
	{16 * 1024, 1},
	{4 * 1024, 2},
	{8 * 1024, 2},
}

// Sec5L1Size sweeps primary cache size and associativity, scoring each
// configuration by time per instruction under the cycle-time model.
// The paper's conclusion: 4 KW direct-mapped (the page size) wins; CPI
// keeps improving with size but time does not.
func Sec5L1Size(o Options) []L1SizeRow {
	o = o.normalized()
	rows := sweep(o, len(L1SizeSweep), func(i int) L1SizeRow {
		shape := L1SizeSweep[i]
		cfg := baseConfig()
		cfg.L1I.SizeWords = shape.SizeWords
		cfg.L1I.Ways = shape.Ways
		cfg.L1D.SizeWords = shape.SizeWords
		cfg.L1D.Ways = shape.Ways
		cycle := l1CycleNS(shape.SizeWords, shape.Ways)
		st := run(cfg, o, KernelSuite).Stats
		cpi := st.CPI()
		return L1SizeRow{
			SizeWords: shape.SizeWords,
			Ways:      shape.Ways,
			CycleNS:   cycle,
			CPI:       cpi,
			TPI:       cpi * cycle,
		}
	})
	var baseTPI float64
	for _, r := range rows {
		if r.SizeWords == 4*1024 && r.Ways == 1 {
			baseTPI = r.TPI
		}
	}
	for i := range rows {
		rows[i].TPI /= baseTPI
	}
	return rows
}

// FormatSec5 renders the size study.
func FormatSec5(rows []L1SizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %10s %8s %18s\n", "L1 size", "ways", "cycle(ns)", "CPI", "time/instr (norm)")
	for _, r := range rows {
		marker := ""
		if r.SizeWords == 4*1024 && r.Ways == 1 {
			marker = "  <- base (page size)"
		}
		fmt.Fprintf(&b, "%-10s %6d %10.1f %8.3f %18.3f%s\n",
			kwLabel(r.SizeWords), r.Ways, r.CycleNS, r.CPI, r.TPI, marker)
	}
	return b.String()
}

// FetchRow is one point of the Section 8 fetch-size study.
type FetchRow struct {
	IFetch int
	DFetch int
	CPI    float64
}

// FetchSizes are the swept fetch/line sizes in words.
var FetchSizes = []int{4, 8, 16}

// Sec8FetchSize sweeps the L1 fetch (= line) size on the split design
// with the Section 8 transfer rates, over w. The paper: 8 W is optimal
// for both caches; 16 W loses. PaperCalibrated, where hot-set reuse
// rather than streaming dominates, matches the conditions under which
// the paper found it.
func Sec8FetchSize(o Options, w Workload) []FetchRow {
	o = o.normalized()
	return sweep(o, len(FetchSizes)*len(FetchSizes), func(i int) FetchRow {
		ifetch := FetchSizes[i/len(FetchSizes)]
		dfetch := FetchSizes[i%len(FetchSizes)]
		cfg := optimizedSansConcurrency()
		cfg.L1I.LineWords = ifetch
		cfg.L1D.LineWords = dfetch
		st := run(cfg, o, w).Stats
		return FetchRow{IFetch: ifetch, DFetch: dfetch, CPI: st.CPI()}
	})
}

// FormatFetch renders the fetch-size matrix (I fetch rows, D fetch
// columns).
func FormatFetch(rows []FetchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPI        D fetch:")
	for _, d := range FetchSizes {
		fmt.Fprintf(&b, " %8dW", d)
	}
	b.WriteString("\n")
	for _, i := range FetchSizes {
		fmt.Fprintf(&b, "I fetch %2dW        ", i)
		for _, d := range FetchSizes {
			for _, r := range rows {
				if r.IFetch == i && r.DFetch == d {
					fmt.Fprintf(&b, " %9.3f", r.CPI)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FetchAt returns the row for a fetch pair.
func FetchAt(rows []FetchRow, ifetch, dfetch int) (FetchRow, bool) {
	for _, r := range rows {
		if r.IFetch == ifetch && r.DFetch == dfetch {
			return r, true
		}
	}
	return FetchRow{}, false
}
