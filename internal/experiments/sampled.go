package experiments

// The sampled fidelity: the Fig. 2/5/6 experiment families re-run
// through internal/sample's interval-sampling engine, reporting every
// CPI as mean ± 95% CI across measured intervals instead of a single
// exact number. One sampled configuration run costs roughly a tenth of
// its exact twin (see BenchmarkSampledSweep), which is what makes these
// sweeps usable at -scale factors where exact replay takes hours.
//
// Sampling precision grows with workload length: the default regime
// measures one 12k-instruction interval per 720k instructions, so a
// scale-1 suite yields a few dozen intervals and visibly wide CIs.
// The interval count is printed with every table; raise -scale until
// the CI is tight enough for the comparison at hand.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/workload"
)

// runSampled samples the recorded kernel suite on cfg under o.
func runSampled(cfg core.Config, o Options) sample.Result {
	cfg.SelfCheck = o.SelfCheck
	return must(sample.Run(cfg, workload.ReplayProcesses(KernelSuite.record(o)), o.schedConfig(), o.Sampling))
}

// SampledCPI is one sampled sweep point: the interval-mean CPI with its
// 95% confidence interval, and how many intervals produced it.
type SampledCPI struct {
	CPI       sample.Stat
	Intervals int
}

func sampledCPI(res sample.Result) SampledCPI {
	return SampledCPI{CPI: res.CPI, Intervals: res.Intervals}
}

// formatCI renders mean ± half-width of the 95% CI.
func formatCI(s sample.Stat) string {
	return fmt.Sprintf("%.3f ±%.3f", s.Mean, 1.96*s.Stderr)
}

// SampledFig2Row is one multiprogramming level at the sampled fidelity.
type SampledFig2Row struct {
	Level   int
	L1IMiss sample.Stat
	L1DMiss sample.Stat
	L2Miss  sample.Stat
	CPI     sample.Stat
	// Intervals is the number of measured intervals behind the CIs.
	Intervals int
}

// SampledFig2 is Fig2 at the sampled fidelity.
func SampledFig2(o Options) []SampledFig2Row {
	o = o.normalized()
	levels := []int{1, 2, 4, 8, 16}
	return sweep(o, len(levels), func(i int) SampledFig2Row {
		lo := o
		lo.Level = levels[i]
		res := runSampled(baseConfig(), lo)
		return SampledFig2Row{
			Level:     levels[i],
			L1IMiss:   res.L1IMissRatio,
			L1DMiss:   res.L1DMissRatio,
			L2Miss:    res.L2MissRatio,
			CPI:       res.CPI,
			Intervals: res.Intervals,
		}
	})
}

// FormatSampledFig2 renders the sampled level sweep.
func FormatSampledFig2(rows []SampledFig2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %16s %10s\n",
		"Level", "L1-I miss", "L1-D miss", "L2 miss", "CPI (95% CI)", "intervals")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %10.4f %10.4f %10.4f %16s %10d\n",
			r.Level, r.L1IMiss.Mean, r.L1DMiss.Mean, r.L2Miss.Mean, formatCI(r.CPI), r.Intervals)
	}
	return b.String()
}

// SampledFig5Row is one (policy, L2 access time) point at the sampled
// fidelity.
type SampledFig5Row struct {
	Policy     core.WritePolicy
	AccessTime int
	SampledCPI
}

// SampledFig5 is the write-policy sweep of Fig5 (kernel suite) at the
// sampled fidelity.
func SampledFig5(o Options) []SampledFig5Row {
	o = o.normalized()
	policies := []core.WritePolicy{core.WriteBack, core.WriteMissInvalidate, core.WriteOnly, core.Subblock}
	return sweep(o, len(Fig5AccessTimes)*len(policies), func(i int) SampledFig5Row {
		t := Fig5AccessTimes[i/len(policies)]
		p := policies[i%len(policies)]
		return SampledFig5Row{Policy: p, AccessTime: t,
			SampledCPI: sampledCPI(runSampled(fig5Config(p, t), o))}
	})
}

// FormatSampledFig5 renders the policy-by-access-time matrix with CIs.
func FormatSampledFig5(rows []SampledFig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "CPI ±95% CI by access time")
	for _, t := range Fig5AccessTimes {
		fmt.Fprintf(&b, " %14d", t)
	}
	b.WriteString("\n")
	for _, p := range []core.WritePolicy{core.WriteBack, core.WriteMissInvalidate, core.WriteOnly, core.Subblock} {
		fmt.Fprintf(&b, "%-22s", p.String())
		for _, t := range Fig5AccessTimes {
			for _, r := range rows {
				if r.Policy == p && r.AccessTime == t {
					fmt.Fprintf(&b, " %14s", formatCI(r.CPI))
				}
			}
		}
		b.WriteString("\n")
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "(%d measured intervals per point)\n", rows[0].Intervals)
	}
	return b.String()
}

// SampledFig6Row is one (size, organization) point at the sampled
// fidelity, carrying the CPI of Fig. 6 and the L2 miss ratio of
// Table 2, each with its CI.
type SampledFig6Row struct {
	SizeWords int
	Org       L2Org
	CPI       sample.Stat
	MissRatio sample.Stat
	Intervals int
}

// SampledFig6 is the L2 organization sweep of Fig6/Table 2 (kernel
// suite) at the sampled fidelity.
func SampledFig6(o Options) []SampledFig6Row {
	o = o.normalized()
	return sweep(o, len(Fig6Sizes)*len(Fig6Orgs), func(i int) SampledFig6Row {
		size := Fig6Sizes[i/len(Fig6Orgs)]
		org := Fig6Orgs[i%len(Fig6Orgs)]
		res := runSampled(fig6Config(size, org), o)
		return SampledFig6Row{
			SizeWords: size,
			Org:       org,
			CPI:       res.CPI,
			MissRatio: res.L2MissRatio,
			Intervals: res.Intervals,
		}
	})
}

// FormatSampledFig6 renders the CPI matrix with CIs.
func FormatSampledFig6(rows []SampledFig6Row) string {
	return formatSampledFig6Matrix(rows, "CPI", func(r SampledFig6Row) sample.Stat { return r.CPI })
}

// FormatSampledTable2 renders the miss-ratio matrix with CIs.
func FormatSampledTable2(rows []SampledFig6Row) string {
	return formatSampledFig6Matrix(rows, "L2 miss", func(r SampledFig6Row) sample.Stat { return r.MissRatio })
}

func formatSampledFig6Matrix(rows []SampledFig6Row, label string, metric func(SampledFig6Row) sample.Stat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", label)
	for _, org := range Fig6Orgs {
		fmt.Fprintf(&b, " %14s", org)
	}
	b.WriteString("\n")
	for _, size := range Fig6Sizes {
		fmt.Fprintf(&b, "%-8s", kwLabel(size))
		for _, org := range Fig6Orgs {
			for _, r := range rows {
				if r.SizeWords == size && r.Org == org {
					fmt.Fprintf(&b, " %14s", formatCI(metric(r)))
				}
			}
		}
		b.WriteString("\n")
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "(%d measured intervals per point)\n", rows[0].Intervals)
	}
	return b.String()
}
