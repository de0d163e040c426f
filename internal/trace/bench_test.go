package trace_test

import (
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkCursorBatch measures packed-trace replay: every member of the
// recorded scale-1 kernel suite decoded start to finish through
// Cursor.Batch and Skip in 4096-event batches, the way the scheduler
// pulls events for StepBatch.
func BenchmarkCursorBatch(b *testing.B) {
	rec := recordAll(workload.Record(1))
	events := 0
	for _, r := range rec {
		events += r.Trace.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rec {
			c := r.Trace.NewCursor()
			for evs := c.Batch(4096); len(evs) > 0; evs = c.Batch(4096) {
				c.Skip(len(evs))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}

// BenchmarkSkipScan measures the skip phase of sampled simulation:
// every member of the recorded scale-1 kernel suite fast-forwarded
// start to finish through Cursor.SkipScan in spans of up to 500,000
// events (the order of a sampling period's skip phase), each call also
// stopping at syscalls the way the scheduler's fast-forward does.
func BenchmarkSkipScan(b *testing.B) {
	rec := recordAll(workload.Record(1))
	events := 0
	for _, r := range rec {
		events += r.Trace.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rec {
			c := r.Trace.NewCursor()
			for {
				if n, _ := c.SkipScan(500_000); n == 0 {
					break
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}

// BenchmarkPack measures packing: one member of the recorded scale-1
// kernel suite (sieve, replayed from memory so the source costs little)
// drained by trace.Pack into a new recording. B/op is the words'
// allocation, which regrowth by append would multiply.
func BenchmarkPack(b *testing.B) {
	src := trace.Collect(workload.Record(1)[0].Trace.NewCursor()) // reads it to the end
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		trace.Pack(src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(src.Len()), "ns/event")
}

// recordAll reads each recording of rs to its end, so that no timed
// replay pays for recording it, and returns rs.
func recordAll(rs []workload.Recorded) []workload.Recorded {
	for _, r := range rs {
		c := r.Trace.NewCursor()
		for n, _ := c.SkipScan(math.MaxInt); n > 0; n, _ = c.SkipScan(math.MaxInt) {
		}
	}
	return rs
}
