package experiments

import (
	"runtime"

	"repro/internal/workload"
)

// workers resolves Options.Parallelism to a worker count.
func (o Options) workers() int {
	switch {
	case o.Parallelism > 0:
		return o.Parallelism
	case o.Parallelism < 0:
		return runtime.NumCPU()
	}
	return 1
}

// sweep evaluates job(0..n-1) and returns the results in index order,
// fanning the jobs over workload.RunParallel when o.Parallelism asks
// for it. Every Fig*/Table* sweep is phrased as one or two of these
// calls; a job must derive its entire configuration from its index and
// must not write shared state (the recorded workload it replays is
// immutable and shared).
func sweep[T any](o Options, n int, job func(i int) T) []T {
	out := make([]T, n)
	workload.RunParallel(o.workers(), n, func(i int) {
		out[i] = job(i)
	})
	return out
}
