package workload

import (
	"sync/atomic"
	"testing"
)

// TestRunParallelOrderAndCoverage checks every index runs exactly once
// and results land at their own index regardless of worker count.
func TestRunParallelOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		const n = 37
		var ran [n]int32
		out := make([]int, n)
		RunParallel(workers, n, func(i int) {
			atomic.AddInt32(&ran[i], 1)
			out[i] = i * i
		})
		for i := 0; i < n; i++ {
			if ran[i] != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, ran[i])
			}
			if out[i] != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, out[i], i*i)
			}
		}
	}
}

// TestRunParallelPanic checks a panicking job surfaces on the caller's
// goroutine after the pool drains, and that the lowest-indexed panic
// wins (deterministic re-raise).
func TestRunParallelPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("panic did not propagate")
		}
		if r != "boom-3" {
			t.Fatalf("recovered %v, want the lowest-indexed panic boom-3", r)
		}
	}()
	RunParallel(4, 16, func(i int) {
		if i == 3 || i == 11 {
			panic("boom-" + string(rune('0'+i%10)))
		}
	})
}
