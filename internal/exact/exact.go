// Package exact computes ground-truth optima for the experiments: the
// optimal suppression k-anonymization OPT(V) (the quantity the paper
// proves NP-hard to compute in general) and the optimal k-minimum
// diameter sum (the intermediate objective of §4.1–4.2).
//
// The workhorse is a bitmask dynamic program over row subsets,
// exponential in n by necessity; the paper's §4.1 wlog — any partition
// may be refined to group sizes in [k, 2k−1] without increasing either
// objective — keeps the transition fan-out polynomial in n for fixed k.
// A complementary branch-and-bound solver handles somewhat larger n on
// structured instances and degrades to an anytime upper bound under a
// node budget.
package exact

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"kanon/internal/core"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/relation"
)

// MaxDPRows bounds the bitmask DP: 2^n table entries.
const MaxDPRows = 24

// Objective selects what the solvers minimize.
type Objective int

const (
	// Stars minimizes total suppressed entries — the paper's OPT(V).
	Stars Objective = iota
	// DiameterSum minimizes Σ_S d(S) over (k, 2k−1)-partitions — the
	// k-minimum diameter sum problem of §4.1.
	DiameterSum
)

// Result is an exact (or best-found) solution.
type Result struct {
	Partition *core.Partition
	Value     int
	// Optimal is false only for budgeted branch-and-bound runs that
	// exhausted their node budget before closing the gap.
	Optimal bool
	// Nodes counts explored search nodes (branch-and-bound only).
	Nodes int64
}

// SolveCtx computes the optimal value and an optimal
// (k, 2k−1)-partition by dynamic programming over subsets. It errors
// if n > MaxDPRows or the instance is infeasible (n < k).
//
// The context is polled every 4096 DP states (and every 1024 candidate
// groups during the cost precompute), so the exponential solve — the
// NP-hard step a server must be able to bound — aborts promptly when
// the caller cancels or times out; the returned error wraps ctx.Err().
// Instrumentation attaches under sp (nil disables it): an "exact.dp"
// span around the DP plus counters for candidate groups costed
// (exact.groups_costed) and DP states expanded (exact.dp_masks).
// Tracing never changes the computed optimum.
func SolveCtx(ctx context.Context, t *relation.Table, k int, obj Objective, sp *obs.Span) (*Result, error) {
	n := t.Len()
	if k < 1 {
		return nil, fmt.Errorf("exact: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("exact: n = %d < k = %d", n, k)
	}
	if n > MaxDPRows {
		return nil, fmt.Errorf("exact: n = %d exceeds DP limit %d", n, MaxDPRows)
	}
	mat := metric.NewMatrix(t)
	return solveCost(ctx, t, k, groupCostFunc(t, mat, obj), sp)
}

// solveCost is the DP core shared by SolveCtx and SolveWeightedCtx; the
// caller has validated (t, k) against MaxDPRows already or delegates
// here directly for the weighted path.
func solveCost(ctx context.Context, t *relation.Table, k int, groupCost func([]int) int, sp *obs.Span) (*Result, error) {
	ds := sp.Start("exact.dp")
	defer ds.End()
	n := t.Len()
	if k < 1 {
		return nil, fmt.Errorf("exact: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("exact: n = %d < k = %d", n, k)
	}
	if n > MaxDPRows {
		return nil, fmt.Errorf("exact: n = %d exceeds DP limit %d", n, MaxDPRows)
	}
	maxSize := 2*k - 1
	size := 1 << uint(n)

	// Precompute the cost of every candidate group (mask with popcount
	// in [k, 2k−1]); there are only Σ_s C(n, s) of them, so this is the
	// cheap part and keeps the DP inner loop free of cost evaluation.
	cost := make([]int32, size)
	groupsCosted := 0
	sizeH := sp.Histogram("exact.group_size")
	{
		members := make([]int, 0, maxSize)
		var ctxErr error
		var gen func(next int)
		gen = func(next int) {
			if ctxErr != nil {
				return
			}
			if len(members) >= k {
				if groupsCosted&1023 == 0 {
					if err := ctx.Err(); err != nil {
						ctxErr = err
						return
					}
				}
				cost[subsetMask(members)] = int32(groupCost(members))
				groupsCosted++
				sizeH.Observe(int64(len(members)))
			}
			if len(members) == maxSize {
				return
			}
			for v := next; v < n; v++ {
				members = append(members, v)
				gen(v + 1)
				members = members[:len(members)-1]
			}
		}
		gen(0)
		if ctxErr != nil {
			return nil, fmt.Errorf("exact: costing groups: %w", ctxErr)
		}
	}

	const inf = math.MaxInt32
	dp := make([]int32, size)
	choice := make([]uint32, size)
	for i := 1; i < size; i++ {
		dp[i] = inf
	}

	// dp[mask] = optimal objective for the rows in mask, composed of
	// groups of size [k, 2k−1]. Transitions pick the group containing
	// mask's lowest set bit; the enumeration below walks all such
	// groups using integer operations only.
	var scratch [32]int
	masksExpanded := 0
	for mask := 1; mask < size; mask++ {
		if mask&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("exact: dp: %w", err)
			}
		}
		if bits.OnesCount(uint(mask)) < k {
			continue
		}
		masksExpanded++
		low := bits.TrailingZeros(uint(mask))
		lowBit := 1 << uint(low)
		rest := mask ^ lowBit
		// avail holds the candidate extra members as bit positions.
		avail := scratch[:0]
		for a := rest; a != 0; {
			b := a & (-a)
			a ^= b
			avail = append(avail, bits.TrailingZeros(uint(b)))
		}
		best := dp[mask]
		bestSub := uint32(choice[mask])
		var rec func(sub int, cnt, from int)
		rec = func(sub int, cnt, from int) {
			if cnt >= k {
				remain := mask ^ sub
				if remain == 0 || dp[remain] != inf {
					c := cost[sub]
					if remain != 0 {
						c += dp[remain]
					}
					if c < best {
						best = c
						bestSub = uint32(sub)
					}
				}
			}
			if cnt == maxSize {
				return
			}
			for i := from; i < len(avail); i++ {
				rec(sub|1<<uint(avail[i]), cnt+1, i+1)
			}
		}
		rec(lowBit, 1, 0)
		dp[mask] = best
		choice[mask] = bestSub
	}

	sp.Counter("exact.groups_costed").Add(int64(groupsCosted))
	sp.Counter("exact.dp_masks").Add(int64(masksExpanded))

	full := size - 1
	if dp[full] == inf {
		return nil, fmt.Errorf("exact: no feasible (%d, %d)-partition of %d rows", k, maxSize, n)
	}
	// Reconstruct.
	p := &core.Partition{}
	for mask := full; mask != 0; {
		sub := int(choice[mask])
		p.Groups = append(p.Groups, maskMembers(sub))
		mask ^= sub
	}
	p.Normalize()
	return &Result{Partition: p, Value: int(dp[full]), Optimal: true}, nil
}

// groupCostFunc returns the per-group cost for the objective.
func groupCostFunc(t *relation.Table, mat metric.Kernel, obj Objective) func([]int) int {
	switch obj {
	case Stars:
		return func(g []int) int { return core.Anon(t, g) }
	case DiameterSum:
		return func(g []int) int { return mat.Diameter(g) }
	default:
		panic(fmt.Sprintf("exact: unknown objective %d", obj))
	}
}

func subsetMask(members []int) int {
	m := 0
	for _, v := range members {
		m |= 1 << uint(v)
	}
	return m
}

func maskMembers(mask int) []int {
	var out []int
	for mask != 0 {
		b := mask & (-mask)
		mask ^= b
		out = append(out, bits.TrailingZeros(uint(b)))
	}
	return out
}

// OPT is shorthand for SolveCtx(ctx, t, k, Stars, nil).Value — the
// paper's OPT(V), never cancelled.
func OPT(t *relation.Table, k int) (int, error) {
	r, err := SolveCtx(context.Background(), t, k, Stars, nil)
	if err != nil {
		return 0, err
	}
	return r.Value, nil
}

// SolveWeightedCtx is SolveCtx with column-weighted star costs: group
// S costs Σ over non-uniform columns j of |S|·w_j (core.AnonWeighted).
// A nil weight vector reduces to SolveCtx(ctx, t, k, Stars, sp). The
// polling granularity and the spans emitted are SolveCtx's.
func SolveWeightedCtx(ctx context.Context, t *relation.Table, k int, w core.Weights, sp *obs.Span) (*Result, error) {
	if err := w.Validate(t.Degree()); err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	return solveCost(ctx, t, k, func(g []int) int { return core.AnonWeighted(t, g, w) }, sp)
}
