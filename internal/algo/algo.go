// Package algo assembles the paper's two headline approximation
// algorithms end-to-end (§4.2.4's summary):
//
//  1. Π := Cover(V, family)        — Phase 1, greedy set cover
//  2. Π := Reduce(Π) until stable  — Phase 2, cover → partition
//  3. Suppress each S ∈ Π to uniformity.
//
// GreedyExhaustive runs Phase 1 over the collection C of all subsets
// with cardinality in [k, 2k−1] (Theorem 4.1, 3k(1+ln k)-approximation,
// O(|V|^{2k}) time). GreedyBall runs it over the ball collection D of
// §4.3 (Theorem 4.2, 6k(1+ln m)-approximation, strongly polynomial).
package algo

import (
	"context"
	"fmt"

	"kanon/internal/core"
	"kanon/internal/cover"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/relation"
)

// Options tunes the algorithms; the zero value reproduces the paper.
type Options struct {
	// Ctx cancels or bounds the run: the hot phases (family
	// construction, greedy rounds) poll it and abort with an error
	// wrapping ctx.Err(). Nil means context.Background() — never
	// cancelled. Cancellation never corrupts state; a cancelled run
	// simply returns no result.
	Ctx context.Context
	// SplitSorted selects the similarity-aware oversize-group split
	// instead of the paper's arbitrary split (ablation E10).
	SplitSorted bool
	// TrueDiameterWeights makes the ball family weight sets by exact
	// diameter instead of the 2·radius bound (ablation E10). Ignored by
	// GreedyExhaustive, which always uses exact diameters.
	TrueDiameterWeights bool
	// MaterializeBalls forces GreedyBall through the explicit family
	// constructor instead of the scalable implicit one; used by tests
	// and ablations. Implied by TrueDiameterWeights.
	MaterializeBalls bool
	// MaxExhaustiveSets caps the enumerated family size of
	// GreedyExhaustive (0 means the cover package default).
	MaxExhaustiveSets int
	// Workers bounds the parallelism of the distance-matrix fill and
	// the ball-family construction: 0 (or negative) means all CPUs, 1
	// forces the sequential path. Results are byte-identical for every
	// worker count.
	Workers int
	// Kernel selects the distance-kernel backend: metric.Auto (the
	// zero value) picks the matrix-free bitset kernel for GreedyBall's
	// lazy cover at every size; for GreedyExhaustive and the
	// materialized ball family it picks dense below
	// metric.AutoBitsetThreshold rows and bitset at or above it.
	// metric.Dense and metric.Bitset force a backend. Results are
	// byte-identical for every choice — only time and memory change.
	// Ignored when Weights is set: the weighted metric is always a
	// dense matrix.
	Kernel metric.Choice
	// Weights prices each column's suppressed entries; nil means all
	// ones, the paper's objective. When set, the distance kernel is the
	// dense weighted metric d_w(u, v) = Σ_j w_j·[u[j] ≠ v[j]], so the
	// candidate sets are drawn and weighted under d_w, and
	// Result.WeightedCost reports the weighted objective. The analysis
	// survives weighting because d_w is still a metric (see
	// internal/core's weighted.go): Theorem 4.2's guarantee becomes
	// 6k(1 + ln W) with W the weighted degree Σ_j w_j.
	Weights core.Weights
	// Trace is the parent span phase spans and counters attach under;
	// nil (the default) disables instrumentation at the cost of a nil
	// check per span. A narrated Trace also logs each phase's end and
	// the matrix_widened and split_oversize anomalies. Tracing never
	// changes results.
	Trace *obs.Span
}

// Stats records instrumentation for the experiments; the phases' wall
// times are the algo.cover, algo.reduce and algo.suppress spans.
type Stats struct {
	FamilySize  int // candidate sets enumerated (0 if implicit)
	CoverSets   int // sets chosen by Phase 1
	CoverWeight int // Σ weights of chosen sets
	DiameterSum int // Σ true diameters of final partition
}

// Result is an anonymization outcome: the partition, the induced
// suppressor, the anonymized table, and the star count.
type Result struct {
	K          int
	Partition  *core.Partition
	Suppressor *core.Suppressor
	Anonymized *relation.Table
	Cost       int
	// WeightedCost is the column-weighted objective, Σ over starred
	// entries of the column's weight; set only when Options.Weights is
	// non-nil (zero otherwise).
	WeightedCost int
	Stats        Stats
}

// GreedyExhaustive is the algorithm of Theorem 4.1.
func GreedyExhaustive(t *relation.Table, k int, opt *Options) (*Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	ctx := opt.ctx()
	if err := checkInstance(t, k, opt.Weights); err != nil {
		return nil, err
	}
	if r, done := trivialResult(t, k); done {
		return r, nil
	}
	mat, err := buildKernel(t, opt, opt.Kernel)
	if err != nil {
		return nil, err
	}
	var st Stats

	cs := opt.Trace.Start("algo.cover")
	family, err := cover.ExhaustiveCtx(ctx, mat, k, opt.MaxExhaustiveSets, cs)
	if err != nil {
		cs.End()
		return nil, fmt.Errorf("algo: building exhaustive family: %w", err)
	}
	st.FamilySize = len(family)
	chosen, err := cover.GreedyCtx(ctx, t.Len(), family, cs)
	cs.End()
	if err != nil {
		return nil, fmt.Errorf("algo: greedy cover: %w", err)
	}

	return finish(t, mat, k, chosen, opt, st)
}

// GreedyBall is the algorithm of Theorem 4.2. With Options.Weights set
// it runs under column-weighted suppression costs (see Weights).
//
// At Kernel metric.Auto the lazy cover runs matrix-free at every size:
// it reads its distances as rows through DistRow, which the bitset
// kernel computes at least as fast as the dense Matrix copies them, and
// the rest of the pass only sums the diameters within each group, so a
// dense fill would cost O(n²·m) time and n² cells for nothing. The
// materialized family (MaterializeBalls, TrueDiameterWeights) looks
// distances up pair by pair, and keeps Auto's size rule.
func GreedyBall(t *relation.Table, k int, opt *Options) (*Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	ctx := opt.ctx()
	if err := checkInstance(t, k, opt.Weights); err != nil {
		return nil, err
	}
	if r, done := trivialResult(t, k); done {
		return r, nil
	}
	materialize := opt.MaterializeBalls || opt.TrueDiameterWeights
	kernel := opt.Kernel
	if kernel == metric.Auto && opt.Weights == nil && !materialize {
		kernel = metric.Bitset
	}
	mat, err := buildKernel(t, opt, kernel)
	if err != nil {
		return nil, err
	}
	var st Stats

	cs := opt.Trace.Start("algo.cover")
	var chosen []cover.Set
	if materialize {
		w := cover.WeightRadiusBound
		if opt.TrueDiameterWeights {
			w = cover.WeightTrueDiameter
		}
		var family []cover.Set
		family, err = cover.BallsCtx(ctx, mat, k, w, opt.Workers, cs)
		if err == nil {
			st.FamilySize = len(family)
			chosen, err = cover.GreedyCtx(ctx, t.Len(), family, cs)
		}
	} else {
		chosen, err = cover.GreedyBallsCtx(ctx, mat, k, opt.Workers, cs)
	}
	cs.End()
	if err != nil {
		return nil, fmt.Errorf("algo: greedy ball cover: %w", err)
	}

	return finish(t, mat, k, chosen, opt, st)
}

// buildKernel constructs the distance kernel under the phase span: the
// dense weighted matrix when Options.Weights is set, otherwise the
// backend selected by kernel. It reports the int16→int32
// widening fallback of the dense path as an anomaly when it fires and
// counts which backend ran. Construction polls the Options
// context (per row on the dense fill, per row block on the bitset
// packing), so a cancelled run aborts its heaviest phase promptly.
func buildKernel(t *relation.Table, opt *Options, kernel metric.Choice) (metric.Kernel, error) {
	ms := opt.Trace.Start("algo.distance-matrix")
	var kern metric.Kernel
	var err error
	if opt.Weights != nil {
		kern, err = core.WeightedMatrixCtx(opt.ctx(), t, opt.Weights, opt.Workers)
	} else {
		kern, err = metric.NewKernelCtx(opt.ctx(), t, kernel, opt.Workers)
	}
	ms.End()
	if err != nil {
		return nil, fmt.Errorf("algo: distance kernel: %w", err)
	}
	if mat, ok := kern.(*metric.Matrix); ok {
		opt.Trace.Counter("algo.kernel_dense").Add(1)
		if mat.Wide() {
			ms.Anomaly("matrix_widened", int64(t.Len()))
		}
	} else {
		opt.Trace.Counter("algo.kernel_bitset").Add(1)
	}
	return kern, nil
}

// finish runs Phase 2 and the suppression step shared by both
// algorithms.
func finish(t *relation.Table, mat metric.Kernel, k int, chosen []cover.Set, opt *Options, st Stats) (*Result, error) {
	if err := opt.ctx().Err(); err != nil {
		return nil, fmt.Errorf("algo: %w", err)
	}
	st.CoverSets = len(chosen)
	st.CoverWeight = cover.WeightSum(chosen)

	rs := opt.Trace.Start("algo.reduce")
	p, err := cover.ReduceTraced(t.Len(), chosen, k, rs)
	if err != nil {
		rs.End()
		return nil, fmt.Errorf("algo: reduce: %w", err)
	}
	if rs != nil {
		oversize := 0
		for _, g := range p.Groups {
			if len(g) > 2*k-1 {
				oversize++
			}
		}
		if oversize > 0 {
			rs.Anomaly("split_oversize", int64(oversize))
		}
	}
	if opt.SplitSorted {
		p.SplitOversizeSorted(k, mat)
	} else {
		p.SplitOversize(k)
	}
	if err := p.Validate(t.Len(), k, 2*k-1); err != nil {
		rs.End()
		return nil, fmt.Errorf("algo: internal: invalid partition after reduce: %w", err)
	}
	rs.End()
	st.DiameterSum = p.DiameterSum(mat)

	ss := opt.Trace.Start("algo.suppress")
	sup := p.Suppressor(t)
	anon := sup.Apply(t)
	ss.End()
	opt.Trace.Counter("algo.entries_suppressed").Add(int64(sup.Stars()))
	opt.Trace.Counter("algo.groups").Add(int64(len(p.Groups)))
	if gh := opt.Trace.Histogram("algo.group_size"); gh != nil {
		for _, g := range p.Groups {
			gh.Observe(int64(len(g)))
		}
	}

	if !anon.IsKAnonymous(k) {
		return nil, fmt.Errorf("algo: internal: output is not %d-anonymous", k)
	}
	res := &Result{
		K:          k,
		Partition:  p,
		Suppressor: sup,
		Anonymized: anon,
		Cost:       sup.Stars(),
		Stats:      st,
	}
	if opt.Weights != nil {
		res.WeightedCost = sup.WeightedStars(opt.Weights)
	}
	return res, nil
}

// ctx resolves the Options context, treating nil (and a nil receiver)
// as the never-cancelled background context.
func (o *Options) ctx() context.Context {
	if o == nil || o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// checkInstance validates the (t, k, weights) input shared by all
// algorithms.
func checkInstance(t *relation.Table, k int, w core.Weights) error {
	if k < 1 {
		return fmt.Errorf("algo: k = %d < 1", k)
	}
	if t.Len() == 0 {
		return fmt.Errorf("algo: empty table")
	}
	if t.Len() < k {
		return fmt.Errorf("algo: table has %d rows, fewer than k = %d", t.Len(), k)
	}
	if err := w.Validate(t.Degree()); err != nil {
		return fmt.Errorf("algo: %w", err)
	}
	return nil
}

// trivialResult handles k = 1, where the identity suppressor is optimal
// (every row is its own group).
func trivialResult(t *relation.Table, k int) (*Result, bool) {
	if k != 1 {
		return nil, false
	}
	p := &core.Partition{}
	for i := 0; i < t.Len(); i++ {
		p.Groups = append(p.Groups, []int{i})
	}
	sup := core.NewSuppressor(t.Len(), t.Degree())
	return &Result{
		K:          1,
		Partition:  p,
		Suppressor: sup,
		Anonymized: sup.Apply(t),
		Cost:       0,
	}, true
}
