package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Fig4Result is the base architecture's CPI stack.
type Fig4Result struct {
	BaseCPI float64 // 1 + CPU stalls: the floor the stack sits on
	Stack   []CauseCPI
	Total   float64
}

// CauseCPI is one layer of the Fig. 4 histogram.
type CauseCPI struct {
	Cause core.Cause
	CPI   float64
}

// Fig4 runs the base architecture and decomposes its CPI by stall
// cause, the paper's performance-loss histogram.
func Fig4(o Options) Fig4Result {
	o = o.normalized()
	st := run(baseConfig(), o, KernelSuite).Stats
	out := Fig4Result{BaseCPI: st.BaseCPI(), Total: st.CPI()}
	for _, c := range core.Causes() {
		if c == core.CauseCPU {
			continue
		}
		out.Stack = append(out.Stack, CauseCPI{Cause: c, CPI: st.CPIOf(c)})
	}
	return out
}

// FormatFig4 renders the stack bottom-up like the paper's histogram.
func FormatFig4(r Fig4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base (1 + CPU stalls): %.3f\n", r.BaseCPI)
	for _, layer := range r.Stack {
		if layer.CPI == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s +%.4f\n", layer.Cause, layer.CPI)
	}
	fmt.Fprintf(&b, "total CPI: %.3f (memory contribution %.3f)\n", r.Total, r.Total-r.BaseCPI)
	return b.String()
}

// Fig5Row is one (policy, L2 access time) point.
type Fig5Row struct {
	Policy     core.WritePolicy
	AccessTime int
	CPI        float64
	// WriteHits and WBWait expose the two competing costs the paper
	// discusses: the extra cycles of two-cycle writes, and time spent
	// waiting on the write buffer.
	WriteHits float64
	WBWait    float64
}

// Fig5AccessTimes are the swept L2 access times (cycles), assuming the
// paper's two-cycle latency component.
var Fig5AccessTimes = []int{2, 4, 6, 8, 10}

// Fig5 sweeps the four write policies against L2 access time on the
// base architecture, over w. The paper's claims: write-through policies
// win below ~8 cycles, write-back wins above; write-only tracks
// subblock placement closely and beats write-miss-invalidate. The
// kernel suite misses far harder than the paper's compiled programs, so
// the crossover is validated on PaperCalibrated (~3.5% L1-D miss ratio,
// 98% write hits), whose ratios match the paper's.
func Fig5(o Options, w Workload) []Fig5Row {
	o = o.normalized()
	policies := []core.WritePolicy{core.WriteBack, core.WriteMissInvalidate, core.WriteOnly, core.Subblock}
	return sweep(o, len(Fig5AccessTimes)*len(policies), func(i int) Fig5Row {
		t := Fig5AccessTimes[i/len(policies)]
		p := policies[i%len(policies)]
		st := run(fig5Config(p, t), o, w).Stats
		return Fig5Row{
			Policy:     p,
			AccessTime: t,
			CPI:        st.CPI(),
			WriteHits:  st.CPIOf(core.CauseL1Write),
			WBWait:     st.CPIOf(core.CauseWB),
		}
	})
}

// fig5Config builds the base architecture with the given write policy
// and L2 access time.
func fig5Config(p core.WritePolicy, accessTime int) core.Config {
	cfg := core.Base()
	cfg.WritePolicy = p
	if p != core.WriteBack {
		cfg.WBEntries = 8
		cfg.WBEntryWords = 1
	}
	cfg.L2U.Timing = core.TimingForAccess(accessTime)
	return cfg
}

// FormatFig5 renders a policy-by-access-time CPI matrix.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "CPI by L2 access time")
	for _, t := range Fig5AccessTimes {
		fmt.Fprintf(&b, " %8d", t)
	}
	b.WriteString("\n")
	for _, p := range []core.WritePolicy{core.WriteBack, core.WriteMissInvalidate, core.WriteOnly, core.Subblock} {
		fmt.Fprintf(&b, "%-22s", p.String())
		for _, t := range Fig5AccessTimes {
			for _, r := range rows {
				if r.Policy == p && r.AccessTime == t {
					fmt.Fprintf(&b, " %8.3f", r.CPI)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig5Crossover returns the smallest swept access time at which
// write-back outperforms the write-only policy — the paper finds 8
// cycles (for its workload's L1 miss ratios); 0 means write-through
// won everywhere.
func Fig5Crossover(rows []Fig5Row) int {
	cpi := map[[2]int]float64{}
	for _, r := range rows {
		cpi[[2]int{int(r.Policy), r.AccessTime}] = r.CPI
	}
	for _, t := range Fig5AccessTimes {
		wb := cpi[[2]int{int(core.WriteBack), t}]
		wo := cpi[[2]int{int(core.WriteOnly), t}]
		if wb < wo {
			return t
		}
	}
	return 0
}
