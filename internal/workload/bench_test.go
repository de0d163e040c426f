package workload

import "testing"

// BenchmarkRecord measures recording the scale-1 suite: every member
// emulated or synthesized and packed through Pack, bypassing Record's
// memo, as a fresh process's first Record(1) does. The benchmark
// programs are assembled beforehand (progs keeps them per scale), so
// each iteration times the packing alone.
func BenchmarkRecord(b *testing.B) {
	for _, m := range Members() {
		m.NewStream(1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(Members(), 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N), "ms/op")
}
