package cover

import (
	"context"
	"fmt"
	"math"

	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/par"
)

// ExhaustiveCtx builds the paper's collection C: every subset of
// {0..n−1} with cardinality in [k, 2k−1], weighted by its true
// diameter. The family has Σ_{s=k}^{2k−1} C(n, s) sets; maxSets guards
// against accidental blow-ups (pass 0 for the default of 5 million).
// Use the ball family when this errors — that trade-off is exactly the
// paper's §4.3.
//
// The context is polled every 1024 enumerated sets, so the
// O(|V|^{2k−1}) enumeration aborts promptly when the caller cancels or
// times out; the returned error wraps ctx.Err(). Instrumentation
// attaches under sp (nil disables it): a "cover.family.exhaustive" span
// around the enumeration and a cover.sets_generated counter for the
// candidate sets emitted.
func ExhaustiveCtx(ctx context.Context, mat metric.Kernel, k, maxSets int, sp *obs.Span) ([]Set, error) {
	fs := sp.Start("cover.family.exhaustive")
	defer fs.End()
	n := mat.Len()
	if k < 1 {
		return nil, fmt.Errorf("cover: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("cover: n = %d < k = %d", n, k)
	}
	if maxSets <= 0 {
		maxSets = 5_000_000
	}
	count := 0.0
	for s := k; s <= 2*k-1 && s <= n; s++ {
		count += binomial(n, s)
	}
	if count > float64(maxSets) {
		return nil, fmt.Errorf("cover: exhaustive family would hold ~%.3g sets (max %d); use the ball family", count, maxSets)
	}

	sets := make([]Set, 0, int(count))
	// Depth-first enumeration of combinations with incremental
	// diameter maintenance: extending a prefix by element e costs
	// O(|prefix|) distance lookups. Cancellation is polled every 1024
	// emitted sets and unwinds the recursion via ctxErr.
	prefix := make([]int, 0, 2*k-1)
	var ctxErr error
	var rec func(start, diam int)
	rec = func(start, diam int) {
		if ctxErr != nil {
			return
		}
		if len(prefix) >= k {
			if len(sets)&1023 == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return
				}
			}
			sets = append(sets, Set{Members: append([]int(nil), prefix...), Weight: diam})
		}
		if len(prefix) == 2*k-1 {
			return
		}
		for e := start; e < n; e++ {
			nd := mat.DiameterWith(prefix, diam, e)
			prefix = append(prefix, e)
			rec(e+1, nd)
			prefix = prefix[:len(prefix)-1]
		}
	}
	rec(0, 0)
	if ctxErr != nil {
		return nil, fmt.Errorf("cover: exhaustive family: %w", ctxErr)
	}
	sp.Counter("cover.sets_generated").Add(int64(len(sets)))
	return sets, nil
}

// binomial returns C(n, s) as a float64 (guard arithmetic only).
func binomial(n, s int) float64 {
	if s < 0 || s > n {
		return 0
	}
	out := 1.0
	for i := 1; i <= s; i++ {
		out *= float64(n - s + i)
		out /= float64(i)
		if math.IsInf(out, 1) {
			return out
		}
	}
	return out
}

// BallWeight selects how ball sets are weighted in the greedy cover.
type BallWeight int

const (
	// WeightRadiusBound weights S_{c,i} by 2·r where r is the largest
	// realized distance from c within the ball (r ≤ i). By the triangle
	// inequality this upper-bounds the true diameter (Lemma 4.2's
	// d(S_{c,i}) ≤ 2i), so Theorem 4.2's guarantee is preserved while
	// avoiding any pairwise diameter computation. This is the default.
	WeightRadiusBound BallWeight = iota
	// WeightTrueDiameter weights each ball by its exact diameter —
	// never weaker, but costs O(|S|²) per ball; ablation E10 measures
	// the cost/quality trade-off.
	WeightTrueDiameter
)

// mergeCenters concatenates per-center set slices in center order — the
// deterministic merge that makes the sharded builder emit exactly the
// sequential order.
func mergeCenters(perCenter [][]Set) []Set {
	total := 0
	for _, s := range perCenter {
		total += len(s)
	}
	sets := make([]Set, 0, total)
	for _, s := range perCenter {
		sets = append(sets, s...)
	}
	return sets
}

// BallsCtx builds the paper's collection D: for every center c ∈ V, the
// distinct balls S_{c,i} with at least k members.
//
// Only radii at which a ball actually grows are emitted, so the family
// has at most n distinct sets per center. This deduplicated family
// coincides with the paper's alternative formulation S_{c,c'} = {v :
// d(c, v) ≤ d(c, c')} (plus the radius-0 ball of exact duplicates): a
// ball changes only at realized distances, so enumerating realized radii
// and enumerating witnesses c' produce the same sets
// (TestWitnessFamilyEqualsRadiusFamily checks it against a witness
// builder). The paper's advice to "substitute whichever collection is
// smaller" is therefore moot after deduplication — E10 confirms.
//
// Each center's balls are built by the counting-sort radius kernel
// (ballsForCenter) on one worker (workers: 0 means all CPUs, 1 forces
// the sequential path); the per-center results are concatenated in
// center order, so the family is byte-identical for every worker
// count. The context is checked once per center, so construction over
// large tables aborts promptly when the caller cancels or times out;
// the returned error wraps ctx.Err(). Instrumentation attaches under sp
// (nil disables it): a "cover.family.balls" span around the per-center
// construction and a cover.sets_generated counter for the Lemma 4.2
// candidate balls emitted. The family is identical with and without a
// span.
func BallsCtx(ctx context.Context, mat metric.Kernel, k int, w BallWeight, workers int, sp *obs.Span) ([]Set, error) {
	fs := sp.Start("cover.family.balls")
	defer fs.End()
	n := mat.Len()
	if k < 1 {
		return nil, fmt.Errorf("cover: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("cover: n = %d < k = %d", n, k)
	}
	perCenter := make([][]Set, n)
	par.For(n, workers, func(_, c int) {
		if ctx.Err() != nil {
			return // drain remaining centers cheaply; checked below
		}
		s := getScratch(n)
		perCenter[c] = ballsForCenter(mat, k, w, c, s)
		putScratch(s)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cover: ball family: %w", err)
	}
	sets := mergeCenters(perCenter)
	sp.Counter("cover.sets_generated").Add(int64(len(sets)))
	if sp != nil {
		ballSize := sp.Histogram("cover.ball_size")
		ballRadius := sp.Histogram("cover.ball_radius")
		for _, s := range sets {
			ballSize.Observe(int64(len(s.Members)))
			if w == WeightRadiusBound {
				ballRadius.Observe(int64(s.Weight / 2))
			}
		}
	}
	return sets, nil
}
