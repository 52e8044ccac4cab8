package cover

import (
	"container/heap"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
// rows, lie at each of its center's distances. So every center keeps
// those two counts per distance (see ballCounts): evaluating a center
// walks its distances in ascending order. Picking a ball fills the
// chosen center's distance row once, which lists the members in index
// order, and then updates every center's uncovered counts, either by
// subtracting the newly covered rows or by rebuilding from the rows
// still uncovered, whichever list is shorter.
//
// Correctness of the laziness: for a fixed center, every ball's ratio
// weight/uncovered is nondecreasing as the covered region grows, hence
// so is the center's best ratio. A priority queue keyed by last-known
// best ratio therefore yields the true global minimum once the popped
// center's recomputed key is no worse than the next key in the queue.
//
// The count build is sharded across workers by tile pair of the
// distance triangle (flat tables) or by center (sparse histograms),
// and the per-pick updates by chunks of updateChunk centers, through
// par.For (par.Workers resolves the count: 0 means all CPUs, 1 forces
// the sequential path). Tasks that share a tile add their counts under
// its lock, each center's uncovered counts are written by one worker
// at a time, and the greedy selection itself is sequential; the counts
// are integer sums, so the chosen cover is byte-identical for every
// worker count. The context is checked once per center of each build
// task, once per chunk during each update, and once per selection
// round, so covers over large tables abort promptly when the caller
// cancels or times out; the returned error wraps ctx.Err().
// Instrumentation attaches under sp (nil disables it): child spans for
// the two phases ("cover.neighbor-order" for the count build,
// "cover.greedy" for the selection loop), a gauge of the workers the
// pools run on (cover.workers), and counters for greedy rounds run
// (cover.greedy_rounds), center evaluations (cover.balls_considered),
// and sets picked (cover.sets_picked). Tracing never changes the
// chosen cover.
func GreedyBallsCtx(ctx context.Context, mat metric.Kernel, k, workers int, sp *obs.Span) ([]Set, error) {
	n := mat.Len()
	if k < 1 {
		return nil, fmt.Errorf("cover: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("cover: n = %d < k = %d", n, k)
	}

	cs := newBallCounts(mat, workers)
	sp.Gauge("cover.workers").Set(int64(len(cs.ws)))
	ns := sp.Start("cover.neighbor-order")
	cs.build(ctx)
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

	evalCenter := func(c int) centerEntry {
		considered++
		return cs.best(c, k)
	}

	// Initial heap: every center evaluated against the empty cover.
	pq := make(centerHeap, n)
	for c := range pq {
		pq[c] = evalCenter(c)
	}
	heap.Init(&pq)

	covered := make([]bool, n)
	remaining := n
	// update brings the uncovered counts of the i-th chunk of centers
	// up to date: rows, just covered, come off them or, with recount
	// set, rows are the rows still uncovered and are counted afresh.
	rows := make([]int32, 0, n)
	var recount bool
	chunks := (n + updateChunk - 1) / updateChunk
	update := func(w, i int) {
		if ctx.Err() != nil {
			return // drain remaining chunks cheaply; checked below
		}
		lo := i * updateChunk
		cs.update(w, lo, min(lo+updateChunk, n), rows, recount)
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
		row := cs.ws[0].row
		fillRow(mat, best.center, 0, row)
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
		par.For(chunks, len(cs.ws), update)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cover: ball greedy: %w", err)
		}
		pq.push(evalCenter(best.center))
	}
	return chosen, nil
}

// updateChunk is the number of consecutive rows in one tile of the
// flat count build and in one chunk of a per-pick update. A center's
// distances to a tile, or a covered row's to a chunk of centers, are
// one ranged fill, and the tile's or chunk's counts (a few KB under
// Hamming) stay in cache while the rows stream past.
const updateChunk = 256

// ballCounts holds, for every center, the number of rows and of
// still-uncovered rows at each of its distances, in one of two layouts
// picked from the kernel's distance range, with no option:
//
//   - flat, when MaxDist()+1 ≤ min(n, flatMaxWidth), which holds for
//     every Hamming kernel over fewer than flatMaxWidth columns and
//     more rows than columns: two n×(MaxDist+1) tables, tot and unc,
//     one fixed-width row per center indexed by distance. They take
//     8·n·(MaxDist+1) bytes, less than the sparse layout's
//     n·min(n, MaxDist+1) buckets of 12 bytes, and at most
//     8·flatMaxWidth bytes a center. They are built over the tile
//     pairs of the distance triangle, so each unordered pair is
//     computed once and counted for both its rows. A center is
//     evaluated over its row's nonempty slots, and a pick streams each
//     covered row's distances to a chunk of centers through one ranged
//     DistRow, adding ±1 at unc[c][d]; no pair pays an interface call
//     or a bucket search.
//   - sparse, otherwise: per center, a histogram of its distinct
//     distances in ascending order, which an update searches for each
//     covered row's bucket. A weighted metric can range far past n,
//     or just under it with only a few distinct distances per center,
//     where fixed-width rows would be mostly empty slots.
//
// Both layouts list the same distances with the same counts, so the
// evaluations, and the cover, are the same.
type ballCounts struct {
	mat   metric.Kernel
	width int     // slots per center in tot and unc; 0 selects hist
	tot   []int32 // tot[c*width+d]: rows at distance d from center c
	unc   []int32 // unc[c*width+d]: those of them still uncovered
	hist  [][]distBucket
	ws    []histWorker // one per pool worker
	sums  *tileSums    // the flat build's shared tiles; nil on one worker
}

// tileSums is what the flat build's tile-pair tasks need when they run
// on more than one worker, where two of them can share a tile: each
// worker counts a pair into its own two tile-sized rows of local, then
// adds them to tot under each tile's lock.
type tileSums struct {
	locks []sync.Mutex // one per tile
	local []int32      // 2·updateChunk·width slots per worker
}

// flatMaxWidth caps the slots a center's row takes in the flat count
// tables. A Hamming kernel needs m+1 of them for m columns; past the
// cap a kernel keeps the sparse histograms, so the flat tables never
// take more than 512 bytes a center, whatever a weighted metric's
// range (at a range of 1,008 over 2,000 rows, with at most 16 distinct
// distances a center, they would take 16 MB against 0.4 MB of
// histograms).
const flatMaxWidth = 64

// newBallCounts sizes the count storage of mat's rows, and one
// histWorker per worker the cover shards across.
func newBallCounts(mat metric.Kernel, workers int) *ballCounts {
	n, maxd := mat.Len(), mat.MaxDist()
	cs := &ballCounts{mat: mat, ws: make([]histWorker, par.Workers(workers, n))}
	if maxd+1 <= min(n, flatMaxWidth) {
		cs.width = maxd + 1
		cs.tot = make([]int32, n*cs.width)
		cs.unc = make([]int32, n*cs.width)
	} else {
		cs.hist = make([][]distBucket, n)
	}
	for w := range cs.ws {
		cs.ws[w].row = make([]int32, n)
		if cs.width == 0 {
			cs.ws[w].buf = make([]distBucket, 0, n)
			if maxd <= countingSortCutoff(n) {
				cs.ws[w].cnt = make([]int32, maxd+1)
			}
		}
	}
	return cs
}

// build counts every center's distances, polling ctx once per center
// of each task; a cancelled build leaves the counts incomplete, and the
// caller checks ctx afterwards. The sparse histograms are built by
// center, one full distance row each; the flat tables by tile pair
// (see countPair), after which unc starts as a copy of tot.
func (cs *ballCounts) build(ctx context.Context) {
	n := cs.mat.Len()
	if cs.width == 0 {
		par.For(n, len(cs.ws), func(w, c int) {
			if ctx.Err() != nil {
				return // drain remaining centers cheaply
			}
			row := cs.ws[w].row
			fillRow(cs.mat, c, 0, row)
			cs.hist[c] = cs.ws[w].histogram(row)
		})
		return
	}
	tiles := (n + updateChunk - 1) / updateChunk
	pairs := tiles * (tiles + 1) / 2
	workers := par.Workers(len(cs.ws), pairs)
	if workers > 1 {
		cs.sums = &tileSums{
			locks: make([]sync.Mutex, tiles),
			local: make([]int32, workers*2*updateChunk*cs.width),
		}
	}
	par.For(pairs, workers, func(w, p int) { cs.countPair(ctx, w, p) })
	copy(cs.unc, cs.tot)
}

// countPair counts, on worker w, the p-th tile pair (i, j) in
// row-major order over i ≤ j: the distances between the centers of
// tile i and the rows of tile j. Each center fills its distances to
// tile j, only to the rows after it when j = i, with one ranged fill,
// and each distance d(c, v) counts at tot[c][d] and, the metric being
// symmetric, at tot[v][d]; each center counts its own zero on the
// diagonal. On one worker the counts go straight into tot; otherwise
// the worker counts into its two tile-sized rows of cs.sums.local and
// adds them to tot under each tile's lock, so tasks that share a tile
// never race, and the sums, being integer, do not depend on their
// order.
func (cs *ballCounts) countPair(ctx context.Context, w, p int) {
	n, width := cs.mat.Len(), cs.width
	i, tiles := 0, (n+updateChunk-1)/updateChunk
	for p >= tiles-i {
		p -= tiles - i
		i++
	}
	j := i + p
	i0, i1 := i*updateChunk, min((i+1)*updateChunk, n)
	j0, j1 := j*updateChunk, min((j+1)*updateChunk, n)
	ti, tj := cs.tot[i0*width:i1*width], cs.tot[j0*width:j1*width]
	if cs.sums != nil {
		local := cs.sums.local[w*2*updateChunk*width:]
		ti = local[:len(ti)]
		if j == i {
			tj = ti
		} else {
			tj = local[updateChunk*width:][:len(tj)]
		}
		clear(ti)
		clear(tj)
	}
	row := cs.ws[w].row
	for c := i0; c < i1; c++ {
		if ctx.Err() != nil {
			return // the counts are discarded; checked by the caller
		}
		tc := ti[(c-i0)*width:][:width]
		lo := j0
		if j == i {
			lo = c + 1
			tc[0]++
		}
		dist := row[:j1-lo]
		fillRow(cs.mat, c, lo, dist)
		off := (lo - j0) * width
		for _, d := range dist {
			tc[d]++
			tj[off+int(d)]++
			off += width
		}
	}
	if cs.sums == nil {
		return
	}
	addUnder(&cs.sums.locks[i], cs.tot[i0*width:i1*width], ti)
	if j != i {
		addUnder(&cs.sums.locks[j], cs.tot[j0*width:j1*width], tj)
	}
}

// addUnder adds src into dst while holding mu.
func addUnder(mu *sync.Mutex, dst, src []int32) {
	mu.Lock()
	for x, t := range src {
		dst[x] += t
	}
	mu.Unlock()
}

// best returns center c's minimum-ratio ball against the current
// uncovered counts. Ball boundaries are the center's distinct
// distances. Every center has a ball of all n ≥ k rows, so one
// qualifies while any row is uncovered.
func (cs *ballCounts) best(c, k int) centerEntry {
	e := centerEntry{center: c}
	size, unc := 0, 0
	if cs.width == 0 {
		for _, b := range cs.hist[c] {
			size += int(b.tot)
			unc += int(b.unc)
			e.consider(2*int(b.d), size, unc, k)
		}
		return e
	}
	row := c * cs.width
	tot, uncs := cs.tot[row:row+cs.width], cs.unc[row:row+cs.width]
	for d, t := range tot {
		if t == 0 {
			continue
		}
		size += int(t)
		unc += int(uncs[d])
		e.consider(2*d, size, unc, k)
	}
	return e
}

// update takes rows, just covered, off the uncovered counts of centers
// [lo, hi) on worker w; with recount set, rows are instead all the rows
// still uncovered and the counts are rebuilt from them. In the flat
// tables each row's distances to the chunk come from one ranged fill
// (d is a metric, so d(v, c) = d(c, v)).
func (cs *ballCounts) update(w, lo, hi int, rows []int32, recount bool) {
	if cs.width == 0 {
		for c := lo; c < hi; c++ {
			cs.ws[w].uncover(cs.mat, c, cs.hist[c], rows, recount)
		}
		return
	}
	width := cs.width
	unc := cs.unc[lo*width : hi*width]
	delta := int32(-1)
	if recount {
		delta = 1
		clear(unc)
	}
	dist := cs.ws[w].row[:hi-lo]
	for _, v := range rows {
		fillRow(cs.mat, int(v), lo, dist)
		off := 0
		for _, d := range dist {
			unc[off+int(d)] += delta
			off += width
		}
	}
}

// consider offers e the ball that ends at a distance boundary of its
// center: the ball has the given weight and size and holds unc
// uncovered rows. It keeps the better of it and e's ball.
func (e *centerEntry) consider(weight, size, unc, k int) {
	if size < k || unc == 0 {
		return
	}
	if e.unc == 0 || better(weight, unc, e.weight, e.unc) {
		e.weight, e.unc, e.end = weight, unc, size
	}
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

// histWorker is one worker's reusable state for filling distance rows
// and for building and updating sparse center histograms.
type histWorker struct {
	row []int32 // a center's distance row, or a chunk's part of one
	// cnt counts rows per distance while a histogram is built and maps
	// distance to bucket index during an update; nil when the kernel's
	// distance range is past countingSortCutoff.
	cnt    []int32
	sorted []int32      // the row sorted, when cnt is nil
	buf    []distBucket // the histogram under construction
	chunk  []distBucket // storage the built histograms are copied into
}

// histogram returns the sparse distance histogram of row, a center's
// distance row, counting the distances when their range allows and
// sorting the row otherwise. Both produce the same buckets.
func (w *histWorker) histogram(row []int32) []distBucket {
	buf := w.buf[:0]
	if w.cnt != nil {
		clear(w.cnt)
		for _, d := range row {
			w.cnt[d]++
		}
		for d, t := range w.cnt {
			if t > 0 {
				buf = append(buf, distBucket{d: int32(d), tot: t, unc: t})
			}
		}
	} else {
		s := append(w.sorted[:0], row...)
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
		w.chunk = make([]distBucket, 0, max(len(buf), min(histChunk, len(row)*cap(w.buf))))
	}
	start := len(w.chunk)
	w.chunk = append(w.chunk, buf...)
	return w.chunk[start:len(w.chunk):len(w.chunk)]
}

// uncover takes rows, just covered, off the uncovered counts of h,
// center c's sparse histogram; with recount set, rows are instead all
// the rows still uncovered and the counts are rebuilt from them. A
// row's bucket is found by binary search over h's distinct distances,
// or through cnt filled as a distance → bucket map when filling it
// takes no more steps than the searches it replaces, so an update
// costs O(min(len(rows)·log len(h), len(rows)+len(h))) whatever the
// metric.
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

// fillRow fills out with center c's distances to the rows lo, lo+1, …,
// out[i] = d(c, lo+i), through the kernel's RowFiller fast path when it
// has one.
func fillRow(mat metric.Kernel, c, lo int, out []int32) {
	if rf, ok := mat.(metric.RowFiller); ok {
		rf.DistRow(c, lo, out)
		return
	}
	for i := range out {
		out[i] = int32(mat.Dist(c, lo+i))
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
