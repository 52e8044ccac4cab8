package exact

import (
	"context"
	"fmt"
	"math"
	"sort"

	"kanon/internal/core"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/relation"
)

// BranchBound solves optimal k-anonymity by depth-first search over
// (k, 2k−1)-partitions with lower-bound pruning. Unlike the DP it has
// no hard row limit; on structured instances it closes moderately
// larger n, and under a node budget it degrades gracefully into an
// anytime solver whose Result.Optimal reports whether the search
// completed.
//
// The pruning bound: every row i placed in a group S pays at least
// U(S) ≥ max_{j∈S} d(i, j) ≥ d(i, its (k−1)-th nearest neighbor) stars,
// so Σ over unassigned rows of their (k−1)-NN distance lower-bounds the
// remaining cost (each row's group must contain k−1 other rows, though
// possibly already-assigned ones — hence the global, not residual,
// (k−1)-NN distance is used).
//
// Instrumentation attaches under sp (nil disables it): an
// "exact.branch-bound" span and an exact.nodes counter for search
// nodes expanded (the same quantity Result.Nodes reports).
func BranchBound(t *relation.Table, k int, maxNodes int64, sp *obs.Span) (*Result, error) {
	bs := sp.Start("exact.branch-bound")
	defer bs.End()
	n := t.Len()
	if k < 1 {
		return nil, fmt.Errorf("exact: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("exact: n = %d < k = %d", n, k)
	}
	if maxNodes <= 0 {
		maxNodes = 50_000_000
	}
	// Auto kernel selection: the (k−1)-NN warm-up is the only metric
	// consumer here, so large instances get the matrix-free kernel's
	// tiled counting-sort pass instead of an O(n²) matrix fill.
	mat, _ := metric.NewKernelCtx(context.Background(), t, metric.Auto, 0)
	nnLB := mat.KthNearest(k - 1)

	// Greedy initial incumbent: lexicographic chunks — cheap, valid.
	incumbent, incumbentCost := chunkPartition(t, k)

	assigned := make([]bool, n)
	var cur [][]int
	var nodes int64
	budgetHit := false
	maxSize := 2*k - 1

	// suffixLB[i] = Σ_{j ≥ i unassigned} nnLB[j] maintained
	// incrementally via a running total.
	totalLB := 0
	for _, v := range nnLB {
		totalLB += v
	}

	depthH := bs.Histogram("exact.node_depth")
	var rec func(costSoFar int)
	rec = func(costSoFar int) {
		if budgetHit {
			return
		}
		nodes++
		depthH.Observe(int64(len(cur)))
		if nodes > maxNodes {
			budgetHit = true
			return
		}
		if costSoFar+totalLB >= incumbentCost {
			return
		}
		first := -1
		for i := 0; i < n; i++ {
			if !assigned[i] {
				first = i
				break
			}
		}
		if first == -1 {
			// Complete partition.
			if costSoFar < incumbentCost {
				incumbentCost = costSoFar
				incumbent = clonePartition(cur)
			}
			return
		}
		var rest []int
		for i := first + 1; i < n; i++ {
			if !assigned[i] {
				rest = append(rest, i)
			}
		}
		if 1+len(rest) < k {
			return // cannot form a feasible group
		}
		group := []int{first}
		assigned[first] = true
		totalLB -= nnLB[first]
		var build func(from int)
		build = func(from int) {
			if budgetHit {
				return
			}
			remaining := 0
			for _, r := range rest {
				if !assigned[r] {
					remaining++
				}
			}
			if len(group) >= k && (remaining == 0 || remaining >= k) {
				c := core.Anon(t, group)
				cur = append(cur, append([]int(nil), group...))
				rec(costSoFar + c)
				cur = cur[:len(cur)-1]
			}
			if len(group) == maxSize {
				return
			}
			for idx := from; idx < len(rest); idx++ {
				r := rest[idx]
				if assigned[r] {
					continue
				}
				group = append(group, r)
				assigned[r] = true
				totalLB -= nnLB[r]
				build(idx + 1)
				totalLB += nnLB[r]
				assigned[r] = false
				group = group[:len(group)-1]
			}
		}
		build(0)
		totalLB += nnLB[first]
		assigned[first] = false
	}
	rec(0)
	bs.Counter("exact.nodes").Add(nodes)

	p := &core.Partition{Groups: incumbent}
	p.Normalize()
	if err := p.Validate(n, k, 0); err != nil {
		return nil, fmt.Errorf("exact: internal: branch-and-bound produced invalid partition: %w", err)
	}
	return &Result{
		Partition: p,
		Value:     incumbentCost,
		Optimal:   !budgetHit,
		Nodes:     nodes,
	}, nil
}

// chunkPartition builds the sorted-chunks incumbent: rows in
// lexicographic order, consecutive groups of k with the remainder
// spread over the last group.
func chunkPartition(t *relation.Table, k int) ([][]int, int) {
	idx := t.SortedIndex()
	var groups [][]int
	for len(idx) > 0 {
		sz := k
		if len(idx) < 2*k {
			sz = len(idx)
		}
		g := append([]int(nil), idx[:sz]...)
		sort.Ints(g)
		groups = append(groups, g)
		idx = idx[sz:]
	}
	cost := 0
	for _, g := range groups {
		cost += core.Anon(t, g)
	}
	return groups, cost
}

func clonePartition(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// Certify checks that a claimed optimum is consistent: the partition is
// valid, its suppressor cost equals value, and value does not exceed the
// cost of a handful of alternative feasible partitions. Used by tests
// as a sanity harness around the solvers.
func Certify(t *relation.Table, k int, r *Result) error {
	if err := r.Partition.Validate(t.Len(), k, 0); err != nil {
		return err
	}
	if got := r.Partition.Cost(t); got != r.Value {
		return fmt.Errorf("exact: partition cost %d != reported value %d", got, r.Value)
	}
	if _, c := chunkPartition(t, k); c < r.Value {
		return fmt.Errorf("exact: sorted-chunks cost %d beats claimed optimum %d", c, r.Value)
	}
	return nil
}

// LowerBoundNN returns the Σ (k−1)-NN lower bound on OPT(V): every row
// must share a group with at least k−1 others, so it pays at least its
// distance to its (k−1)-th nearest neighbor. Cheap and useful as a
// certificate on instances too large for the exact solvers.
func LowerBoundNN(t *relation.Table, k int) int {
	if k < 2 {
		return 0
	}
	mat, _ := metric.NewKernelCtx(context.Background(), t, metric.Auto, 0)
	total := 0
	for _, v := range mat.KthNearest(k - 1) {
		total += v
	}
	return total
}

// Ratio returns approx/opt guarding the zero-optimum case: when OPT = 0
// and the approximation also found 0 the ratio is 1; when OPT = 0 but
// the approximation paid something, the ratio is +Inf (the approximation
// bound is multiplicative, so any positive cost is a violation only if
// OPT > 0 — the experiments report these rows separately).
func Ratio(approx, opt int) float64 {
	if opt == 0 {
		if approx == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(approx) / float64(opt)
}
