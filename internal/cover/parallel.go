package cover

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// normWorkers resolves a Workers knob: 0 or negative means all CPUs,
// and the count is clamped to GOMAXPROCS, since more workers cannot run
// at once and each may hold O(n) scratch, and to the number of
// independent work items. No result depends on the worker count.
func normWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		workers = procs
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forEachIndex runs fn(i) for every i in [0, n) across the given number
// of workers. Work is handed out through an atomic counter, in batches
// of about 1/64 of a worker's share, so uneven per-index costs balance
// without a queue and cheap indices do not contend on the counter; fn
// must write only to per-index state (results indexed by i stay
// deterministic regardless of scheduling). workers ≤ 1 degenerates to
// a plain sequential loop with no goroutines, so the Workers: 1 path
// is exactly the sequential code.
func forEachIndex(n, workers int, fn func(i int)) {
	forEachIndexOn(n, workers, func(_, i int) { fn(i) })
}

// forEachIndexOn is forEachIndex that also tells fn which worker runs
// it, w in [0, normWorkers(workers, n)), so fn can use per-worker
// scratch; one worker never runs two calls at once.
func forEachIndexOn(n, workers int, fn func(w, i int)) {
	workers = normWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	batch := max(1, n/(64*workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+batch, n); i++ {
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
