package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mmu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchEventsPerMember is how many leading events of each recorded
// kernel-suite member one BenchmarkStepBatch pass replays.
const benchEventsPerMember = 100_000

// suiteEvents decodes the first benchEventsPerMember events of every
// member of the recorded scale-1 kernel suite, one slice per member.
func suiteEvents() [][]trace.Event {
	rec := workload.Record(1)
	parts := make([][]trace.Event, len(rec))
	for i, r := range rec {
		c := r.Trace.NewCursor()
		for len(parts[i]) < benchEventsPerMember {
			evs := c.Batch(benchEventsPerMember - len(parts[i]))
			if len(evs) == 0 {
				break
			}
			parts[i] = append(parts[i], evs...)
			c.Skip(len(evs))
		}
	}
	return parts
}

// BenchmarkStepBatch measures the exact simulator's host cost per
// event: StepBatch over the leading events of every recorded
// kernel-suite member, each member in its own address space and fed in
// batches of up to 4096 events the way the scheduler feeds a quantum.
// One system persists across passes, so its caches and TLBs are warm.
// One sub-benchmark per write policy of the base architecture.
func BenchmarkStepBatch(b *testing.B) {
	parts := suiteEvents()
	events := 0
	for _, p := range parts {
		events += len(p)
	}
	for _, policy := range []string{"writeback", "wmi", "writeonly", "subblock"} {
		b.Run(policy, func(b *testing.B) {
			cfg, err := experiments.BuildConfig(experiments.ConfigSpec{Preset: "base", Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p, evs := range parts {
					for len(evs) > 0 {
						n, err := sys.StepBatch(mmu.PID(p+1), evs[:min(len(evs), 4096)])
						if err != nil {
							b.Fatal(err)
						}
						evs = evs[n:]
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
