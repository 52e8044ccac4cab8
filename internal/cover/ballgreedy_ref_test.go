package cover

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/relation"
)

// greedyBallsRef is the former GreedyBallsCtx, kept verbatim as the
// reference the count-based greedy must match: it re-evaluates a center
// by refilling and counting-sorting its distance row, and under a
// dense matrix it caches every center's neighbor order.
func greedyBallsRef(ctx context.Context, mat metric.Kernel, k, workers int, sp *obs.Span) ([]Set, error) {
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
		par.For(n, workers, func(_, c int) {
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
				rf.DistRow(c, 0, s.dist)
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
	par.For(n, workers, func(_, c int) {
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

// pairwiseKernel hides a kernel's RowFiller fast path, so the cover
// fills distance rows one Dist call at a time.
type pairwiseKernel struct{ metric.Kernel }

// greedyCounters runs a cover under a live span and returns it with
// the three counters the count-based greedy must keep unchanged.
func greedyCounters(t *testing.T, run func(sp *obs.Span) ([]Set, error)) ([]Set, [3]int64) {
	t.Helper()
	tr := obs.New()
	root := tr.Start("test")
	sets, err := run(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Snapshot().Counters
	return sets, [3]int64{c["cover.greedy_rounds"], c["cover.balls_considered"], c["cover.sets_picked"]}
}

// starCells suppresses about one cell in eight, as a table that has
// already been partly anonymized carries.
func starCells(rng *rand.Rand, tab *relation.Table) *relation.Table {
	out := tab.Clone()
	for i := 0; i < out.Len(); i++ {
		row := out.Row(i)
		for j := range row {
			if rng.Intn(8) == 0 {
				row[j] = relation.Star
			}
		}
	}
	return out
}

// TestGreedyBallsMatchesReference pins the count-based greedy to the
// former implementation: identical covers and identical round,
// evaluation and pick counts, on census, uniform and planted tables
// (some with pre-starred cells), under the dense, bitset, weighted and
// row-by-row kernels, for k in {2, 3, 5} and 1, 2 and 4 workers. One
// weighted metric gives every set of differing columns a distance of
// its own, so centers have many more buckets than m+1 while the range
// stays below countingSortCutoff; another ranges past the cutoff, so
// the comparison-sort fallback runs too. Kernels with MaxDist()+1 ≤ n
// run the flat count tables, the weighted-many kernel of the 57-row,
// 9-column tables and every weighted-wide kernel the sparse
// histograms; the test checks both layouts ran.
func TestGreedyBallsMatchesReference(t *testing.T) {
	ctx := context.Background()
	type table struct {
		name string
		tab  *relation.Table
	}
	var tables []table
	rng := rand.New(rand.NewSource(424242))
	for i, size := range [][2]int{{20, 2}, {57, 9}, {130, 5}, {260, 3}, {420, 7}} {
		n, m := size[0], size[1]
		gens := []table{
			{"census", dataset.Census(rng, n, m)},
			{"uniform", dataset.Uniform(rng, n, m, 2+i%3)},
			{"planted", dataset.Planted(rng, n, m, 4, 3, 1)},
		}
		for g, tb := range gens {
			if (i+g)%2 == 1 {
				tb.name += "-starred"
				tb.tab = starCells(rng, tb.tab)
			}
			tables = append(tables, table{fmt.Sprintf("%s/n=%d/m=%d", tb.name, n, m), tb.tab})
		}
	}
	cases, wide := 0, 0
	layouts := map[bool]int{} // kernels per layout: flat (true) or sparse
	for ti, tb := range tables {
		if raceEnabled && ti%6 != 0 {
			continue // the race build checks census tables of 20, 130 and 420 rows
		}
		m := tb.tab.Degree()
		small := make(core.Weights, m)
		many := make(core.Weights, m)
		large := make(core.Weights, m)
		for j := range small {
			small[j], many[j], large[j] = 1+j%3, 1<<j, 1
		}
		large[0], large[m-1] = 40000, 20000
		dense := metric.NewMatrix(tb.tab)
		bit := bitKernel(t, tb.tab)
		kernels := map[string]metric.Kernel{"dense": dense, "bitset": bit}
		if !raceEnabled {
			kernels["pairwise"] = pairwiseKernel{bit} // differs from bitset only in how rows are filled
		}
		for name, w := range map[string]core.Weights{"weighted": small, "weighted-many": many, "weighted-wide": large} {
			wm, err := core.WeightedMatrixCtx(ctx, tb.tab, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			kernels[name] = wm
		}
		if wm := kernels["weighted-wide"]; wm.MaxDist() > countingSortCutoff(wm.Len()) {
			wide++
		}
		if wm := kernels["weighted-many"]; wm.MaxDist() > countingSortCutoff(wm.Len()) {
			t.Fatalf("%s: weighted-many ranges to %d, past the counting-sort cutoff", tb.name, wm.MaxDist())
		}
		for kname, kern := range kernels {
			layouts[newBallCounts(kern, 1).width > 0]++
			for _, k := range []int{2, 3, 5} {
				want, wantCnt := greedyCounters(t, func(sp *obs.Span) ([]Set, error) {
					return greedyBallsRef(ctx, kern, k, 1, sp)
				})
				for _, workers := range []int{1, 2, 4} {
					got, gotCnt := greedyCounters(t, func(sp *obs.Span) ([]Set, error) {
						return GreedyBallsCtx(ctx, kern, k, workers, sp)
					})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s k=%d workers=%d: cover differs from the reference", tb.name, kname, k, workers)
					}
					if gotCnt != wantCnt {
						t.Fatalf("%s %s k=%d workers=%d: rounds/considered/picked %v, reference %v", tb.name, kname, k, workers, gotCnt, wantCnt)
					}
					cases++
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("no weighted metric ranged past countingSortCutoff; the comparison-sort fallback went untested")
	}
	if layouts[true] == 0 || layouts[false] == 0 {
		t.Fatalf("%d kernels ran the flat tables and %d the sparse histograms; one layout went untested", layouts[true], layouts[false])
	}
	t.Logf("%d cases match the reference, %d tables with a metric past the counting-sort cutoff, %d kernels flat and %d sparse", cases, wide, layouts[true], layouts[false])
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
