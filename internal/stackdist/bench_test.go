package stackdist_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/stackdist"
	"repro/internal/workload"
)

// BenchmarkAnalyze measures the one-pass analyzer's host cost per
// event: a ScreeningGrid pass at multiprogramming level 8 and the
// default 500,000-cycle slice, capped at 1M instructions, over the
// recorded kernel suite and over the paper-calibrated workload the
// screening experiments replay. Each workload is analyzed for every
// class set a screening request uses: all five classes (fastsweep),
// the three L2 views (fig6 and table2), the L2 instruction bank alone
// (fig7) and the L2 data bank alone (fig8). Recording happens before
// the timer starts; every pass builds a fresh analyzer, so it starts
// cold like a screening request does.
func BenchmarkAnalyze(b *testing.B) {
	recordings := []struct {
		name string
		rec  func() []workload.Recorded
	}{
		{"suite", func() []workload.Recorded { return workload.Record(1) }},
		{"paper", func() []workload.Recorded { return workload.RecordPaperLike(8, 400_000) }},
	}
	sets := []struct {
		name    string
		classes stackdist.ClassSet
	}{
		{"all", 0},
		{"l2", stackdist.ClassesOf(stackdist.ClassL2U, stackdist.ClassL2I, stackdist.ClassL2D)},
		{"l2i", stackdist.ClassesOf(stackdist.ClassL2I)},
		{"l2d", stackdist.ClassesOf(stackdist.ClassL2D)},
	}
	scfg := sched.Config{Level: 8, TimeSlice: 500_000, MaxInstructions: 1_000_000}
	for _, r := range recordings {
		for _, set := range sets {
			b.Run(r.name+"/"+set.name, func(b *testing.B) {
				rec := r.rec()
				cfg := experiments.ScreeningGrid()
				cfg.Classes = set.classes
				b.ResetTimer()
				var events uint64
				for i := 0; i < b.N; i++ {
					res, _, err := stackdist.Analyze(cfg, workload.ReplayProcesses(rec), scfg)
					if err != nil {
						b.Fatal(err)
					}
					events = res.Instructions
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
			})
		}
	}
}
