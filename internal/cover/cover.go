// Package cover implements §4.2 of the paper: the greedy weighted
// set-cover approximation for the k-minimum diameter sum problem
// (Phase 1) and the Reduce procedure that converts the resulting cover
// into a (k, ·)-partition with no increase in diameter sum (Phase 2).
//
// Two candidate families are provided. ExhaustiveCtx enumerates every
// subset of V with cardinality in [k, 2k−1] (the collection C of
// §4.2.1), which is what Theorem 4.1 runs greedy over and costs
// O(|V|^{2k−1}) sets. BallsCtx enumerates the collection D of §4.3 —
// the sets S_{c,i} = {v : d(c, v) ≤ i} — which is strongly polynomial
// and what Theorem 4.2 runs greedy over; GreedyBallsCtx runs the greedy
// over D without materializing it.
//
// Each family and greedy has one entry point taking a context (polled
// in the hot loops; a cancelled run returns an error wrapping
// ctx.Err()), a worker count where the work shards (0 means all CPUs,
// 1 the sequential path; output is identical for every count), and a
// parent span for its instrumentation (nil disables it). Callers
// without those needs pass context.Background(), 0 and nil.
//
// The greedy rule follows the paper exactly: repeatedly choose the set S
// minimizing r(S) = weight(S) / |S ∩ (V − D)| where D is the covered
// region, until V is covered.
package cover

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"kanon/internal/core"
	"kanon/internal/metric"
	"kanon/internal/obs"
)

// Set is one candidate group offered to the greedy cover: its member
// row indices (sorted) and its weight — the set's diameter, or an upper
// bound on it in the ball family's radius-bound mode.
type Set struct {
	Members []int
	Weight  int
}

// GreedyCtx runs the paper's greedy rule over an explicit family and
// returns the chosen sets in selection order. It returns an error if
// the family cannot cover all n elements.
//
// The implementation is lazy greedy with a priority queue: because a
// set's weight is fixed and its uncovered count only shrinks as the
// cover grows, r(S) is nondecreasing over time, so re-evaluating only
// the popped set is exact, not heuristic (ablation E10 cross-checks
// this against the naive full scan).
//
// The context is checked once per selection round, so long covers
// abort promptly when the caller cancels or times out; the returned
// error wraps ctx.Err() and the partial cover is discarded.
// Instrumentation attaches under sp (nil disables it, at the cost of a
// nil check): a "cover.greedy" span around the selection loop, and
// counters for rounds run (cover.greedy_rounds) and sets picked
// (cover.sets_picked). Tracing never changes the selection.
func GreedyCtx(ctx context.Context, n int, sets []Set, sp *obs.Span) ([]Set, error) {
	gs := sp.Start("cover.greedy")
	defer gs.End()
	rounds := 0
	var chosen []Set
	defer func() {
		sp.Counter("cover.greedy_rounds").Add(int64(rounds))
		sp.Counter("cover.sets_picked").Add(int64(len(chosen)))
	}()
	roundSize := sp.Histogram("cover.round_size")
	progress := sp.Progress("cover.covered")
	progress.SetTotal(int64(n))

	covered := make([]bool, n)
	remaining := n
	pq := make(ratioHeap, 0, len(sets))
	for i := range sets {
		u := len(sets[i].Members) // nothing covered yet
		if u == 0 {
			continue
		}
		pq = append(pq, ratioEntry{set: i, weight: sets[i].Weight, unc: u})
	}
	heap.Init(&pq)

	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cover: greedy: %w", err)
		}
		if len(pq) == 0 {
			return nil, fmt.Errorf("cover: family cannot cover %d remaining elements", remaining)
		}
		rounds++
		top := heap.Pop(&pq).(ratioEntry)
		// Re-evaluate the popped set's uncovered count.
		unc := 0
		for _, v := range sets[top.set].Members {
			if !covered[v] {
				unc++
			}
		}
		if unc == 0 {
			continue // fully covered since queued; drop
		}
		if unc != top.unc {
			// Stale: ratio increased. Reinsert unless it still beats
			// the next candidate.
			top.unc = unc
			if len(pq) > 0 && pq[0].less(top) {
				heap.Push(&pq, top)
				continue
			}
		}
		// Select.
		s := sets[top.set]
		chosen = append(chosen, Set{Members: append([]int(nil), s.Members...), Weight: s.Weight})
		for _, v := range s.Members {
			if !covered[v] {
				covered[v] = true
				remaining--
			}
		}
		roundSize.Observe(int64(unc))
		progress.Add(int64(unc))
	}
	return chosen, nil
}

// ratioEntry is a heap entry: candidate set index with its weight and
// last-known uncovered count.
type ratioEntry struct {
	set    int
	weight int
	unc    int
}

// less orders by ratio weight/unc ascending, breaking ties toward
// larger uncovered coverage and then smaller set index for determinism.
func (a ratioEntry) less(b ratioEntry) bool {
	l := int64(a.weight) * int64(b.unc)
	r := int64(b.weight) * int64(a.unc)
	if l != r {
		return l < r
	}
	if a.unc != b.unc {
		return a.unc > b.unc
	}
	return a.set < b.set
}

type ratioHeap []ratioEntry

func (h ratioHeap) Len() int           { return len(h) }
func (h ratioHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h ratioHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ratioHeap) Push(x any)        { *h = append(*h, x.(ratioEntry)) }
func (h *ratioHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// GreedyNaive is the textbook implementation that rescans the whole
// family every round. It exists to validate GreedyCtx (they must select
// identically under the same tie-breaking) and for the E10 ablation's
// timing comparison.
func GreedyNaive(n int, sets []Set) ([]Set, error) {
	covered := make([]bool, n)
	remaining := n
	var chosen []Set
	for remaining > 0 {
		best, bestUnc := -1, 0
		for i := range sets {
			unc := 0
			for _, v := range sets[i].Members {
				if !covered[v] {
					unc++
				}
			}
			if unc == 0 {
				continue
			}
			if best == -1 {
				best, bestUnc = i, unc
				continue
			}
			cand := ratioEntry{set: i, weight: sets[i].Weight, unc: unc}
			cur := ratioEntry{set: best, weight: sets[best].Weight, unc: bestUnc}
			if cand.less(cur) {
				best, bestUnc = i, unc
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("cover: family cannot cover %d remaining elements", remaining)
		}
		s := sets[best]
		chosen = append(chosen, Set{Members: append([]int(nil), s.Members...), Weight: s.Weight})
		for _, v := range s.Members {
			if !covered[v] {
				covered[v] = true
				remaining--
			}
		}
	}
	return chosen, nil
}

// Reduce converts a (k, ·)-cover into a disjoint partition without
// increasing the diameter sum, exactly as in §4.2.2: while some element
// v lies in two chosen sets, either remove v from the larger set (if one
// exceeds k) or replace both sets by their union (if both have size
// exactly k; the union has ≤ 2k−1 elements since v is shared).
//
// The returned partition's groups have size ≥ k but may exceed 2k−1 if
// the input sets did (the ball family produces such sets); callers
// needing a (k, 2k−1)-partition should follow with SplitOversize, which
// is the paper's §4.1 wlog.
func Reduce(n int, chosen []Set, k int) (*core.Partition, error) {
	return ReduceTraced(n, chosen, k, nil)
}

// ReduceTraced is Reduce with instrumentation under the given parent
// span: a "cover.reduce" span plus counters for the two §4.2.2 repair
// moves — element removals from oversize sets (cover.reduce_trims) and
// set merges (cover.reduce_merges).
func ReduceTraced(n int, chosen []Set, k int, sp *obs.Span) (*core.Partition, error) {
	rs := sp.Start("cover.reduce")
	defer rs.End()
	trims, merges := 0, 0
	defer func() {
		sp.Counter("cover.reduce_trims").Add(int64(trims))
		sp.Counter("cover.reduce_merges").Add(int64(merges))
	}()

	alive := make([]map[int]bool, len(chosen))
	for i, s := range chosen {
		m := make(map[int]bool, len(s.Members))
		for _, v := range s.Members {
			m[v] = true
		}
		alive[i] = m
	}
	// owners[v] lists the indices of alive sets containing v. Rebuilt
	// lazily via the work queue below.
	owners := make([][]int, n)
	for i, m := range alive {
		for v := range m {
			owners[v] = append(owners[v], i)
		}
	}
	dead := make([]bool, len(alive))

	// refresh drops dead or stale owner entries for v.
	refresh := func(v int) []int {
		out := owners[v][:0]
		for _, si := range owners[v] {
			if !dead[si] && alive[si][v] {
				out = append(out, si)
			}
		}
		owners[v] = out
		return out
	}

	for v := 0; v < n; v++ {
		for {
			os := refresh(v)
			if len(os) == 0 {
				return nil, fmt.Errorf("cover: element %d not covered", v)
			}
			if len(os) == 1 {
				break
			}
			si, sj := os[0], os[1]
			// Orient so that |alive[si]| ≥ |alive[sj]|.
			if len(alive[si]) < len(alive[sj]) {
				si, sj = sj, si
			}
			if len(alive[si]) > k {
				delete(alive[si], v)
				trims++
			} else {
				// Both have size exactly k (sizes never drop below k:
				// removal only happens above k). Merge into si.
				for w := range alive[sj] {
					if !alive[si][w] {
						alive[si][w] = true
						owners[w] = append(owners[w], si)
					}
				}
				dead[sj] = true
				merges++
			}
		}
	}

	p := &core.Partition{}
	for i, m := range alive {
		if dead[i] || len(m) == 0 {
			continue
		}
		g := make([]int, 0, len(m))
		for v := range m {
			g = append(g, v)
		}
		sort.Ints(g)
		p.Groups = append(p.Groups, g)
	}
	return p, nil
}

// DiameterSum sums true diameters of the chosen sets — the Phase 1
// objective value under actual diameters (weights may be upper bounds).
func DiameterSum(mat metric.Kernel, sets []Set) int {
	total := 0
	for _, s := range sets {
		total += mat.Diameter(s.Members)
	}
	return total
}

// WeightSum sums the declared weights of the chosen sets.
func WeightSum(sets []Set) int {
	total := 0
	for _, s := range sets {
		total += s.Weight
	}
	return total
}
