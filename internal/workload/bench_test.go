package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkRecord measures recording the whole scale-1 suite: every
// member emulated or synthesized and drained by trace.Pack, one after
// another, bypassing Record's memo. A run that reads the whole suite
// pays this inside its own steps, a chunk at a time. The benchmark
// programs are assembled beforehand (progs keeps them per scale), so
// each iteration times the recording alone.
func BenchmarkRecord(b *testing.B) {
	for _, m := range Members() {
		m.NewStream(1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range Members() {
			trace.Pack(m.NewStream(1))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N), "ms/op")
}

// BenchmarkColdCappedRun measures what a capped run costs on a cold
// process: fresh recordings of the scale-1 suite, read by one
// 200,000-instruction level-8 run on Base, which records only the
// prefixes it reads. recorded_kb is what those prefixes hold.
func BenchmarkColdCappedRun(b *testing.B) {
	for _, m := range Members() {
		m.NewStream(1)
	}
	b.ResetTimer()
	var kb float64
	for i := 0; i < b.N; i++ {
		rs := record(Members(), 1)
		if _, err := sim.Run(core.Base(), ReplayProcesses(rs), sched.Config{Level: 8, MaxInstructions: 200_000}); err != nil {
			b.Fatal(err)
		}
		kb = 0
		for _, r := range rs {
			kb += float64(r.Trace.Bytes()) / 1024
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N), "ms/op")
	b.ReportMetric(kb, "recorded_kb")
}
