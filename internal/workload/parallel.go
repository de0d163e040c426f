package workload

import "sync"

// RunParallel runs jobs 0..n-1 on a bounded pool of goroutines, like
// internal/harness's worker pool but for in-process index jobs: each
// job packs one member's trace (Pack) or simulates one configuration of
// an experiment sweep, and writes its result at its own index, so the
// assembled output is in deterministic order no matter how the
// goroutines interleave.
//
// workers <= 1 (or n <= 1) degrades to a plain serial loop on the
// calling goroutine — the serial and parallel paths run the same job
// closures on the same indices, which is what makes byte-identical
// reports testable.
//
// A panicking job does not kill its worker goroutine or the process
// from an arbitrary stack: the panic is recovered, the pool drains, and
// the panic value of the lowest-indexed failed job is re-raised on the
// caller's goroutine (deterministic when the jobs are). The sweep
// harness then converts it into a structured RunError exactly as it
// does for a serial experiment's must failure.
func RunParallel(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicIdx = -1
		panicVal any
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicIdx < 0 || i < panicIdx {
								panicIdx, panicVal = i, r
							}
							mu.Unlock()
						}
					}()
					job(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if panicIdx >= 0 {
		panic(panicVal)
	}
}
