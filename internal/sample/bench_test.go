package sample_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BenchmarkSamplePhases measures the three modes a sampled run
// alternates, each on its own, in ns per event: skip (SkipScan over the
// packed words), warm (functional warming, WarmScan) and measure (the
// cycle-accurate StepScan, which also runs the detailed warmup). Each
// iteration drives a fresh system through a whole replay of the
// recorded kernel suite at multiprogramming level 8 in one mode, under
// a sched.Runner as sample.Run does. The design is Fig. 6's write-only
// base: the base architecture (256 KW unified L2) with the write-only
// policy and an 8-entry, one-word write buffer. A sampled request's
// time splits by the events each mode handles: under the default
// regime, per 720k-instruction period, 13k measure, 100k warm and 607k
// skip.
func BenchmarkSamplePhases(b *testing.B) {
	cfg := core.Base()
	cfg.WritePolicy = core.WriteOnly
	cfg.WBEntries, cfg.WBEntryWords = 8, 1
	rec := workload.Record(1)
	scfg := sched.Config{Level: 8}
	for _, phase := range []struct {
		name string
		mode sched.Mode
	}{
		{"skip", sched.ModeSkip},
		{"warm", sched.ModeWarm},
		{"measure", sched.ModeMeasure},
	} {
		b.Run(phase.name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := core.NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sched.NewRunner(sys, workload.ReplayProcesses(rec), scfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				n, err := r.RunFor(1<<62, phase.mode)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				sys.Release()
				events += n
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
