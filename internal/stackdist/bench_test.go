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
// screening experiments replay. Recording happens before the timer
// starts; every pass builds a fresh analyzer, so it starts cold like a
// screening request does.
func BenchmarkAnalyze(b *testing.B) {
	recordings := []struct {
		name string
		rec  func() []workload.Recorded
	}{
		{"suite", func() []workload.Recorded { return workload.Record(1) }},
		{"paper", func() []workload.Recorded { return workload.RecordPaperLike(8, 400_000) }},
	}
	scfg := sched.Config{Level: 8, TimeSlice: 500_000, MaxInstructions: 1_000_000}
	for _, r := range recordings {
		b.Run(r.name, func(b *testing.B) {
			rec := r.rec()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				res, _, err := stackdist.Analyze(experiments.ScreeningGrid(), workload.ReplayProcesses(rec), scfg)
				if err != nil {
					b.Fatal(err)
				}
				events = res.Instructions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
