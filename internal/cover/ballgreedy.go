package cover

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"kanon/internal/metric"
	"kanon/internal/obs"
)

// GreedyBallsCtx runs the greedy cover over the ball family without
// materializing it, which is what makes Theorem 4.2's algorithm scale.
// It is exactly equivalent to GreedyCtx over BallsCtx(mat, k,
// WeightRadiusBound) (the tests cross-check costs) but stores at most
// one sorted neighbor order per center, so memory is O(n²) small words
// instead of O(n²) full member slices, and each round re-evaluates at
// most a few centers. Under a matrix-free kernel not even the orders
// are cached: each center evaluation recomputes its distance row into
// pooled scratch, keeping the whole cover at O(n·workers) memory.
//
// Correctness of the laziness: for a fixed center, every ball's ratio
// weight/uncovered is nondecreasing as the covered region grows, hence
// so is the center's best ratio. A priority queue keyed by last-known
// best ratio therefore yields the true global minimum once the popped
// center's recomputed key is no worse than the next key in the queue.
//
// Only the neighbor-order precomputation and the initial evaluation
// are sharded across workers (0 means all CPUs, 1 forces the
// sequential path) — the greedy selection loop is inherently
// sequential — so the chosen cover is byte-identical for every worker
// count. The context is checked once per center during the precompute
// and once per selection round, so covers over large tables abort
// promptly when the caller cancels or times out; the returned error
// wraps ctx.Err(). Instrumentation attaches under sp (nil disables it):
// child spans for the two phases ("cover.neighbor-order" precompute,
// "cover.greedy" selection loop) and counters for greedy rounds run
// (cover.greedy_rounds), center re-evaluations
// (cover.balls_considered), and sets picked (cover.sets_picked).
// Tracing never changes the chosen cover.
func GreedyBallsCtx(ctx context.Context, mat metric.Kernel, k, workers int, sp *obs.Span) ([]Set, error) {
	n := mat.Len()
	if k < 1 {
		return nil, fmt.Errorf("cover: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("cover: n = %d < k = %d", n, k)
	}

	// Dense matrices cache one neighbor order per center (ord[c]: the
	// other rows sorted by distance from c, ties by index, matching
	// BallsCtx for reproducible cross-checks) — the cache costs at most
	// the matrix's own O(n²) footprint again, and makes re-evaluations
	// pure lookups. Matrix-free kernels skip the cache entirely: every
	// center evaluation recomputes its distance row and order into
	// pooled scratch, keeping the cover at O(n·workers) memory — the
	// point of running matrix-free.
	var ord [][]int32
	if _, dense := mat.(*metric.Matrix); dense {
		ns := sp.Start("cover.neighbor-order")
		ord = make([][]int32, n)
		forEachIndex(n, workers, func(c int) {
			if ctx.Err() != nil {
				return // drain remaining centers cheaply; checked below
			}
			s := getScratch(n)
			neighborOrder(mat, c, s)
			o := make([]int32, n)
			copy(o, s.ord)
			putScratch(s)
			ord[c] = o
		})
		ns.End()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cover: neighbor order: %w", err)
		}
	}

	gs := sp.Start("cover.greedy")
	defer gs.End()
	rounds := 0
	var considered atomic.Int64
	var chosen []Set
	defer func() {
		sp.Counter("cover.greedy_rounds").Add(int64(rounds))
		sp.Counter("cover.balls_considered").Add(considered.Load())
		sp.Counter("cover.sets_picked").Add(int64(len(chosen)))
	}()
	ballRadius := sp.Histogram("cover.ball_radius")
	ballSize := sp.Histogram("cover.ball_size")
	roundSize := sp.Histogram("cover.round_size")
	progress := sp.Progress("cover.covered")
	progress.SetTotal(int64(n))

	covered := make([]bool, n)
	remaining := n

	// evalCenter returns the minimum-ratio ball centered at c against
	// the current covered set, or ok=false if no ball of c contains an
	// uncovered element. It fills s.dist with c's distance row (and,
	// without the dense cache, s.ord with c's neighbor order) as a side
	// effect the caller may consume.
	evalCenter := func(c int, s *ballScratch) (w, unc, end int, ok bool) {
		considered.Add(1)
		var o []int32
		if ord != nil {
			o = ord[c]
			if rf, has := mat.(metric.RowFiller); has {
				rf.DistRow(c, s.dist)
			} else {
				for v := 0; v < n; v++ {
					s.dist[v] = int32(mat.Dist(c, v))
				}
			}
		} else {
			neighborOrder(mat, c, s)
			o = s.ord
		}
		uncCount := 0
		bw, bu, be := 0, 0, 0
		for e := 0; e < n; e++ {
			if !covered[o[e]] {
				uncCount++
			}
			size := e + 1
			if size < k || uncCount == 0 {
				continue
			}
			if size < n && s.dist[o[e+1]] == s.dist[o[e]] {
				continue // not a distance boundary
			}
			weight := 2 * int(s.dist[o[e]])
			if !ok || better(weight, uncCount, bw, bu) {
				bw, bu, be, ok = weight, uncCount, size, true
			}
		}
		return bw, bu, be, ok
	}

	// Initial heap: every center evaluated against the empty cover.
	// Evaluations are independent (covered is all-false), so they shard
	// across workers; entries are assembled in center order, keeping
	// the heap — and hence the chosen cover — byte-identical for every
	// worker count.
	entries := make([]centerEntry, n)
	valid := make([]bool, n)
	forEachIndex(n, workers, func(c int) {
		if ctx.Err() != nil {
			return // drain remaining centers cheaply; checked below
		}
		s := getScratch(n)
		if w, unc, end, ok := evalCenter(c, s); ok {
			entries[c] = centerEntry{center: c, weight: w, unc: unc, end: end}
			valid[c] = true
		}
		putScratch(s)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cover: ball greedy: %w", err)
	}
	pq := make(centerHeap, 0, n)
	for c := 0; c < n; c++ {
		if valid[c] {
			pq = append(pq, entries[c])
		}
	}
	heap.Init(&pq)

	scratch := getScratch(n)
	defer putScratch(scratch)
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cover: ball greedy: %w", err)
		}
		if len(pq) == 0 {
			return nil, fmt.Errorf("cover: ball family cannot cover %d remaining elements", remaining)
		}
		rounds++
		top := heap.Pop(&pq).(centerEntry)
		w, unc, end, ok := evalCenter(top.center, scratch)
		if !ok {
			continue
		}
		fresh := centerEntry{center: top.center, weight: w, unc: unc, end: end}
		if len(pq) > 0 && pq[0].less(fresh) {
			heap.Push(&pq, fresh)
			continue
		}
		// scratch.ord still holds top.center's order from the eval just
		// above when running without the dense cache.
		o := scratch.ord
		if ord != nil {
			o = ord[top.center]
		}
		members := make([]int, end)
		for i := 0; i < end; i++ {
			v := int(o[i])
			members[i] = v
			if !covered[v] {
				covered[v] = true
				remaining--
			}
		}
		sort.Ints(members)
		chosen = append(chosen, Set{Members: members, Weight: w})
		ballRadius.Observe(int64(w / 2))
		ballSize.Observe(int64(end))
		roundSize.Observe(int64(unc))
		progress.Add(int64(unc))
		if remaining > 0 {
			if w2, unc2, end2, ok2 := evalCenter(top.center, scratch); ok2 {
				heap.Push(&pq, centerEntry{center: top.center, weight: w2, unc: unc2, end: end2})
			}
		}
	}
	return chosen, nil
}

// better reports whether ratio w1/u1 beats w2/u2 under the same
// tie-breaking as ratioEntry.less: smaller ratio first, then larger
// uncovered count.
func better(w1, u1, w2, u2 int) bool {
	l := int64(w1) * int64(u2)
	r := int64(w2) * int64(u1)
	if l != r {
		return l < r
	}
	return u1 > u2
}

// centerEntry is a heap entry: a center with its last-known best ball.
type centerEntry struct {
	center int
	weight int
	unc    int
	end    int
}

func (a centerEntry) less(b centerEntry) bool {
	l := int64(a.weight) * int64(b.unc)
	r := int64(b.weight) * int64(a.unc)
	if l != r {
		return l < r
	}
	if a.unc != b.unc {
		return a.unc > b.unc
	}
	return a.center < b.center
}

type centerHeap []centerEntry

func (h centerHeap) Len() int           { return len(h) }
func (h centerHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h centerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *centerHeap) Push(x any)        { *h = append(*h, x.(centerEntry)) }
func (h *centerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
