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

// suiteRecordings packs the same events suiteEvents returns into one
// recording per member, so the scan benchmarks pay the packed decode on
// exactly the events BenchmarkStepBatch steps.
func suiteRecordings() []*trace.Recorded {
	parts := suiteEvents()
	recs := make([]*trace.Recorded, len(parts))
	for i, evs := range parts {
		recs[i] = trace.Pack(trace.NewMemTrace(evs))
	}
	return recs
}

// benchPolicies are the write policies the per-policy core benchmarks
// run, each on the base architecture.
var benchPolicies = []string{"writeback", "wmi", "writeonly", "subblock"}

// benchSystem builds a base-architecture system with the given write
// policy.
func benchSystem(b *testing.B, policy string) *core.System {
	b.Helper()
	cfg, err := experiments.BuildConfig(experiments.ConfigSpec{Preset: "base", Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
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
	for _, policy := range benchPolicies {
		b.Run(policy, func(b *testing.B) {
			sys := benchSystem(b, policy)
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

// BenchmarkStepScan is BenchmarkStepBatch's workload stepped straight
// off packed cursors: the same events, policies, address spaces and
// 4096-cycle budget per call, with the packed decode included in the
// time. Compare it with BenchmarkStepBatch plus trace's
// BenchmarkCursorBatch, which together cost the same replay through a
// decoded buffer.
func BenchmarkStepScan(b *testing.B) {
	recs := suiteRecordings()
	events := 0
	for _, r := range recs {
		events += r.Len()
	}
	for _, policy := range benchPolicies {
		b.Run(policy, func(b *testing.B) {
			sys := benchSystem(b, policy)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p, r := range recs {
					c := r.NewCursor()
					for {
						n, _, err := sys.StepScan(mmu.PID(p+1), c, 4096)
						if err != nil {
							b.Fatal(err)
						}
						if n == 0 {
							break
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}

// BenchmarkWarmScan measures functional warming straight off packed
// cursors, the fast-forward path of sampled simulation: the same events
// and policies as BenchmarkStepScan, each member warmed start to finish
// in calls that stop only at syscalls.
func BenchmarkWarmScan(b *testing.B) {
	recs := suiteRecordings()
	events := 0
	for _, r := range recs {
		events += r.Len()
	}
	for _, policy := range benchPolicies {
		b.Run(policy, func(b *testing.B) {
			sys := benchSystem(b, policy)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p, r := range recs {
					c := r.NewCursor()
					for {
						n, _, err := sys.WarmScan(mmu.PID(p+1), c, benchEventsPerMember)
						if err != nil {
							b.Fatal(err)
						}
						if n == 0 {
							break
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
