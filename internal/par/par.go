// Package par is kanon's one index pool. Every hot path that shards
// independent work across a Workers count (the distance matrix fill,
// the ball family and greedy cover, the hierarchy count-tree walks and
// the stream's blocks) resolves the count with Workers and runs the
// work with For, so one policy decides how many goroutines a caller's
// Workers value turns into. A pool whose items start pools of their
// own (the stream's blocks) divides its budget with Split.
package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Workers knob against the number of independent
// work items: 0 or negative means all CPUs, and the count is clamped
// to GOMAXPROCS, since more workers cannot run at once and each may
// hold O(n) scratch, and to the item count. The result is at least 1.
// Callers size per-worker state by it; no result may depend on it.
func Workers(workers, items int) int {
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

// Split divides one Workers budget between a pool of items and the
// pools each item's work starts inside it: outer is Workers(workers,
// items), and inner, at least 1, is what the budget has left per outer
// worker, so outer·inner never exceeds the resolved budget (0 or
// negative means all CPUs, clamped to GOMAXPROCS). A budget of 1
// gives 1 and 1: the whole nest runs sequentially.
func Split(workers, items int) (outer, inner int) {
	budget := Workers(workers, math.MaxInt)
	outer = Workers(budget, items)
	return outer, max(1, budget/outer)
}

// For runs fn(w, i) for every i in [0, n) on Workers(workers, n)
// workers; w in [0, Workers(workers, n)) names the worker running the
// call, so fn can use per-worker scratch, and one worker never runs
// two calls at once. Work is handed out through an atomic counter, in
// batches of about 1/64 of a worker's share, so uneven per-index costs
// balance without a queue and cheap indices do not contend on the
// counter. fn must write only to per-index or per-worker state, so
// results stay deterministic regardless of scheduling. One worker
// runs a plain loop in index order with no goroutines, so the
// Workers: 1 path is exactly the sequential code. For returns once
// every call has returned.
func For(n, workers int, fn func(w, i int)) {
	workers = Workers(workers, n)
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
