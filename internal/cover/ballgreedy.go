package cover

import (
	"container/heap"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/par"
)

// GreedyBallsCtx runs the greedy cover over the ball family without
// materializing it, which is what makes Theorem 4.2's algorithm scale.
// It is exactly equivalent to GreedyCtx over BallsCtx(mat, k,
// WeightRadiusBound) (the tests cross-check costs) but builds no ball
// until it picks one.
//
// A ball's ratio depends only on how many rows, and how many uncovered
// rows, lie at each of its center's distances. So every center keeps a
// distance histogram: its distinct distances in ascending order, each
// with the number of all rows and of still-uncovered rows at that
// distance. Evaluating a center walks its at most min(n, MaxDist()+1)
// buckets. Picking a ball fills the chosen center's distance row once,
// which lists the members in index order, and then updates every
// center's uncovered counts, either by subtracting the newly covered
// rows or by rebuilding from the rows still uncovered, whichever list
// is shorter. The histograms hold at most n·min(n, MaxDist()+1)
// buckets in all, under every kernel.
//
// Correctness of the laziness: for a fixed center, every ball's ratio
// weight/uncovered is nondecreasing as the covered region grows, hence
// so is the center's best ratio. A priority queue keyed by last-known
// best ratio therefore yields the true global minimum once the popped
// center's recomputed key is no worse than the next key in the queue.
//
// The histogram build and the per-pick updates are sharded across
// workers by center through par.For (par.Workers resolves the count:
// 0 means all CPUs, 1 forces the sequential path); each center's
// histogram is written by one worker at a time and the greedy
// selection itself is sequential, so the chosen cover is
// byte-identical for every worker count. The context is checked once
// per center during the build and during each update, and once per
// selection round, so covers over large tables abort promptly when the
// caller cancels or times out; the returned error wraps ctx.Err().
// Instrumentation attaches under sp (nil disables it): child spans for
// the two phases ("cover.neighbor-order" for the histogram build,
// "cover.greedy" for the selection loop) and counters for greedy rounds
// run (cover.greedy_rounds), center evaluations
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

	ws := newHistWorkers(mat, workers)
	ns := sp.Start("cover.neighbor-order")
	hist := make([][]distBucket, n)
	par.For(n, len(ws), func(w, c int) {
		if ctx.Err() != nil {
			return // drain remaining centers cheaply; checked below
		}
		hist[c] = ws[w].histogram(mat, c)
	})
	ns.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cover: neighbor order: %w", err)
	}

	gs := sp.Start("cover.greedy")
	defer gs.End()
	rounds, considered := 0, 0
	var chosen []Set
	defer func() {
		sp.Counter("cover.greedy_rounds").Add(int64(rounds))
		sp.Counter("cover.balls_considered").Add(int64(considered))
		sp.Counter("cover.sets_picked").Add(int64(len(chosen)))
	}()
	ballRadius := sp.Histogram("cover.ball_radius")
	ballSize := sp.Histogram("cover.ball_size")
	roundSize := sp.Histogram("cover.round_size")
	progress := sp.Progress("cover.covered")
	progress.SetTotal(int64(n))

	// evalCenter returns c's minimum-ratio ball against the current
	// uncovered counts. Ball boundaries are the ends of the distance
	// buckets. Every center has a ball of all n ≥ k rows, so one
	// qualifies while any row is uncovered.
	evalCenter := func(c int) centerEntry {
		considered++
		best := centerEntry{center: c}
		size, unc := 0, 0
		for _, b := range hist[c] {
			size += int(b.tot)
			unc += int(b.unc)
			if size < k || unc == 0 {
				continue
			}
			if weight := 2 * int(b.d); best.unc == 0 || better(weight, unc, best.weight, best.unc) {
				best.weight, best.unc, best.end = weight, unc, size
			}
		}
		return best
	}

	// Initial heap: every center evaluated against the empty cover.
	pq := make(centerHeap, n)
	for c := range pq {
		pq[c] = evalCenter(c)
	}
	heap.Init(&pq)

	covered := make([]bool, n)
	remaining := n
	// update takes rows, just covered, off center c's uncovered counts
	// or, with recount set, rebuilds the counts from rows, the rows
	// still uncovered.
	rows := make([]int32, 0, n)
	var recount bool
	update := func(w, c int) {
		if ctx.Err() != nil {
			return // drain remaining centers cheaply; checked below
		}
		ws[w].uncover(mat, c, hist[c], rows, recount)
	}
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cover: ball greedy: %w", err)
		}
		rounds++
		top := pq.pop()
		best := evalCenter(top.center)
		if len(pq) > 0 && pq[0].less(best) {
			pq.push(best)
			continue
		}
		// The members are the rows within the ball's radius, listed in
		// index order by one scan of the center's distance row.
		row := ws[0].row
		fillRow(mat, best.center, row)
		r := int32(best.weight / 2)
		members := make([]int, 0, best.end)
		rows = rows[:0]
		for v, d := range row {
			if d > r {
				continue
			}
			members = append(members, v)
			if !covered[v] {
				covered[v] = true
				rows = append(rows, int32(v))
			}
		}
		remaining -= len(rows)
		chosen = append(chosen, Set{Members: members, Weight: best.weight})
		ballRadius.Observe(int64(r))
		ballSize.Observe(int64(best.end))
		roundSize.Observe(int64(best.unc))
		progress.Add(int64(best.unc))
		if remaining == 0 {
			break
		}

		// Every center's uncovered counts drop by the newly covered
		// rows; when fewer rows are left uncovered than were just
		// covered, recount those instead.
		if recount = remaining < len(rows); recount {
			rows = rows[:0]
			for v, cv := range covered {
				if !cv {
					rows = append(rows, int32(v))
				}
			}
		}
		par.For(n, len(ws), update)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cover: ball greedy: %w", err)
		}
		pq.push(evalCenter(best.center))
	}
	return chosen, nil
}

// distBucket is one distinct distance d from a center, with the number
// of rows at that distance (tot) and of those still uncovered (unc).
type distBucket struct {
	d, tot, unc int32
}

// histChunk is the number of buckets a worker allocates at a time to
// store the histograms it builds, unless one histogram needs more or
// the whole table fewer.
const histChunk = 1024

// histWorker is one worker's reusable state for building and updating
// center histograms.
type histWorker struct {
	row []int32 // a center's distance row
	// cnt counts rows per distance while a histogram is built and maps
	// distance to bucket index during an update; nil when the kernel's
	// distance range is past countingSortCutoff.
	cnt    []int32
	sorted []int32      // the row sorted, when cnt is nil
	buf    []distBucket // the histogram under construction
	chunk  []distBucket // storage the built histograms are copied into
}

// newHistWorkers returns one histWorker per worker the cover shards
// across.
func newHistWorkers(mat metric.Kernel, workers int) []histWorker {
	n, maxd := mat.Len(), mat.MaxDist()
	ws := make([]histWorker, par.Workers(workers, n))
	for w := range ws {
		ws[w].row = make([]int32, n)
		ws[w].buf = make([]distBucket, 0, min(n, maxd+1))
		if maxd <= countingSortCutoff(n) {
			ws[w].cnt = make([]int32, maxd+1)
		}
	}
	return ws
}

// histogram returns center c's distance histogram, counting the
// distances when their range allows and sorting the row otherwise.
// Both produce the same buckets.
func (w *histWorker) histogram(mat metric.Kernel, c int) []distBucket {
	fillRow(mat, c, w.row)
	buf := w.buf[:0]
	if w.cnt != nil {
		clear(w.cnt)
		for _, d := range w.row {
			w.cnt[d]++
		}
		for d, t := range w.cnt {
			if t > 0 {
				buf = append(buf, distBucket{d: int32(d), tot: t, unc: t})
			}
		}
	} else {
		s := append(w.sorted[:0], w.row...)
		slices.Sort(s)
		for i := 0; i < len(s); {
			j := i + 1
			for j < len(s) && s[j] == s[i] {
				j++
			}
			buf = append(buf, distBucket{d: s[i], tot: int32(j - i), unc: int32(j - i)})
			i = j
		}
		w.sorted = s
	}
	w.buf = buf
	if cap(w.chunk)-len(w.chunk) < len(buf) {
		// n·min(n, MaxDist+1) buckets hold every histogram of the table.
		w.chunk = make([]distBucket, 0, max(len(buf), min(histChunk, len(w.row)*cap(w.buf))))
	}
	start := len(w.chunk)
	w.chunk = append(w.chunk, buf...)
	return w.chunk[start:len(w.chunk):len(w.chunk)]
}

// uncover takes rows, just covered, off the uncovered counts of h,
// center c's histogram; with recount set, rows are instead all the rows
// still uncovered and the counts are rebuilt from them. A row's bucket
// is found by binary search over h's distinct distances, or through
// cnt filled as a distance → bucket map when filling it takes no more
// steps than the searches it replaces, so an update costs
// O(min(len(rows)·log len(h), len(rows)+len(h))) whatever the metric.
func (w *histWorker) uncover(mat metric.Kernel, c int, h []distBucket, rows []int32, recount bool) {
	delta := int32(-1)
	if recount {
		delta = 1
		for i := range h {
			h[i].unc = 0
		}
	}
	if w.cnt != nil && len(h) <= len(rows)*bits.Len(uint(len(h))) {
		for i, b := range h {
			w.cnt[b.d] = int32(i)
		}
		for _, v := range rows {
			h[w.cnt[mat.Dist(c, int(v))]].unc += delta
		}
		return
	}
	for _, v := range rows {
		d := int32(mat.Dist(c, int(v)))
		i := 0 // h holds d, at the last bucket not above it
		for n := len(h); n > 1; {
			half := n >> 1
			if h[i+half].d <= d {
				i += half
			}
			n -= half
		}
		h[i].unc += delta
	}
}

// fillRow fills row with center c's distances to every row, through
// the kernel's RowFiller fast path when it has one.
func fillRow(mat metric.Kernel, c int, row []int32) {
	if rf, ok := mat.(metric.RowFiller); ok {
		rf.DistRow(c, row)
		return
	}
	for v := range row {
		row[v] = int32(mat.Dist(c, v))
	}
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

// centerHeap is a min-heap of centerEntry. Its pop and push go through
// heap.Fix rather than heap.Pop and heap.Push, which would box every
// entry in an interface value.
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

// pop removes and returns the minimum entry, leaving the heap exactly
// as heap.Pop would.
func (h *centerHeap) pop() centerEntry {
	old := *h
	top, last := old[0], len(old)-1
	old[0] = old[last]
	*h = old[:last]
	if last > 0 {
		heap.Fix(h, 0)
	}
	return top
}

// push adds e, leaving the heap exactly as heap.Push would.
func (h *centerHeap) push(e centerEntry) {
	*h = append(*h, e)
	heap.Fix(h, len(*h)-1)
}
