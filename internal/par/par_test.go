package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	all := min(runtime.NumCPU(), procs)
	for _, tc := range []struct {
		workers, items, want int
	}{
		{0, 1000, min(all, 1000)},
		{-3, 1000, min(all, 1000)},
		{math.MinInt, 1000, min(all, 1000)},
		{1, 1000, 1},
		{2, 1000, min(2, procs)},
		{math.MaxInt, 1000, min(procs, 1000)},
		{math.MaxInt, 1, 1},
		{5, 3, min(3, procs)},
		{0, 0, 1},
		{1, 0, 1},
		{math.MaxInt, 0, 1},
		{-1, -1, 1},
	} {
		if got := Workers(tc.workers, tc.items); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.workers, tc.items, got, tc.want)
		}
	}
}

// TestSplit: the outer pool is what Workers gives the items, the inner
// share is at least 1, and the nest never exceeds the resolved budget.
// GOMAXPROCS is raised so budgets above 1 split on a single-CPU host
// too.
func TestSplit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0))))
	procs := runtime.GOMAXPROCS(0)
	all := min(runtime.NumCPU(), procs)
	for _, tc := range []struct {
		workers, items, outer, inner int
	}{
		{1, 100, 1, 1},
		{1, 1, 1, 1},
		{8, 100, 8, 1},
		{8, 8, 8, 1},
		{8, 3, 3, 2},
		{8, 1, 1, 8},
		{6, 4, 4, 1},
		{7, 2, 2, 3},
		{2, 0, 1, 2},
		{math.MaxInt, 1, 1, procs},
		{math.MaxInt, 1000, procs, 1},
		{0, 1, 1, all},
		{-5, 1000, all, 1},
	} {
		outer, inner := Split(tc.workers, tc.items)
		if outer != tc.outer || inner != tc.inner {
			t.Errorf("Split(%d, %d) = %d, %d, want %d, %d", tc.workers, tc.items, outer, inner, tc.outer, tc.inner)
		}
		if budget := Workers(tc.workers, math.MaxInt); outer*inner > budget {
			t.Errorf("Split(%d, %d) = %d·%d, past the budget %d", tc.workers, tc.items, outer, inner, budget)
		}
	}
}

// TestForWorkersRunEveryIndexOnce: whatever the worker count, every
// index runs exactly once, w stays below Workers(workers, n), and a
// worker never runs two calls at once. GOMAXPROCS is raised so the
// pool runs several workers on a single-CPU host too.
func TestForWorkersRunEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	for _, workers := range []int{1, 2, 3, 8, 0, -1, math.MaxInt} {
		w := Workers(workers, math.MaxInt)
		for _, n := range []int{0, 1, 63, 64*w + 1, 10_000} {
			nw := Workers(workers, n)
			hits := make([]atomic.Int32, n)
			busy := make([]atomic.Bool, nw)
			var outOfRange, overlapped atomic.Int32
			For(n, workers, func(w, i int) {
				if w < 0 || w >= nw {
					outOfRange.Add(1)
					return
				}
				if !busy[w].CompareAndSwap(false, true) {
					overlapped.Add(1)
				}
				defer busy[w].Store(false)
				hits[i].Add(1)
			})
			if c := outOfRange.Load(); c > 0 {
				t.Fatalf("workers=%d n=%d: %d calls with w outside [0, %d)", workers, n, c, nw)
			}
			if c := overlapped.Load(); c > 0 {
				t.Errorf("workers=%d n=%d: a worker ran two calls at once %d times", workers, n, c)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForOneWorkerIsSequential: one worker runs the indices in order on
// the calling goroutine, so a panic reaches the caller's recover.
func TestForOneWorkerIsSequential(t *testing.T) {
	var order []int
	For(100, 1, func(w, i int) {
		if w != 0 {
			t.Fatalf("one worker ran as w = %d", w)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran index %d", i, got)
		}
	}
	if len(order) != 100 {
		t.Fatalf("%d calls, want 100", len(order))
	}
	recovered := func() (r any) {
		defer func() { r = recover() }()
		For(3, 1, func(_, i int) {
			if i == 1 {
				panic("index 1")
			}
		})
		return nil
	}()
	if recovered != "index 1" {
		t.Fatalf("recovered %v, want the panic of index 1", recovered)
	}
}
