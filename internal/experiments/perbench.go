package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PerBenchRow profiles one suite member alone on the base architecture.
type PerBenchRow struct {
	Name    string
	Class   string
	L1IMiss float64
	L1DMiss float64
	L2Miss  float64
	CPI     float64
}

// PerBench runs every suite member in isolation (multiprogramming level
// 1) on the base architecture — the per-benchmark miss-ratio profile
// behind the workload discussion in EXPERIMENTS.md.
func PerBench(o Options) []PerBenchRow {
	o = o.normalized()
	rec := KernelSuite.record(o)
	sc := o.schedConfig()
	sc.Level = 1
	return sweep(o, len(rec), func(i int) PerBenchRow {
		r := rec[i]
		cfg := core.Base()
		cfg.SelfCheck = o.SelfCheck
		res := must(sim.Run(cfg, []sched.Process{{Name: r.Name, Stream: r.Trace.NewCursor()}}, sc))
		st := res.Stats
		return PerBenchRow{
			Name:    r.Name,
			Class:   string(r.Class),
			L1IMiss: st.L1IMissRatio(),
			L1DMiss: st.L1DMissRatio(),
			L2Miss:  st.L2MissRatio(),
			CPI:     st.CPI(),
		}
	})
}

// FormatPerBench renders the profile.
func FormatPerBench(rows []PerBenchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-3s %10s %10s %10s %8s\n", "benchmark", "cls", "L1-I miss", "L1-D miss", "L2 miss", "CPI")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-3s %10.4f %10.4f %10.4f %8.3f\n",
			r.Name, r.Class, r.L1IMiss, r.L1DMiss, r.L2Miss, r.CPI)
	}
	return b.String()
}
