// Package pattern implements a projection-pattern set-cover solver for
// suppression k-anonymity, in the spirit of the low-degree exact
// algorithm the paper attributes to Sweeney [8] ("for the special case
// m = O(log n) ... a polynomial time exact algorithm has been recently
// proposed"). Since [8] was never published, this package builds the
// natural algorithm in that regime from the machinery already in the
// repository:
//
// Every group of a k-anonymization is determined by a *pattern* — the
// set of columns it keeps — and the shared values on those columns. So
// the candidate groups are, for each of the 2^m column subsets P, the
// buckets of rows that agree on P and have at least k members. A group
// anonymized under pattern P costs |group| · |P̄| stars. Running the
// paper's own Phase 1 greedy + Phase 2 Reduce over this family yields a
// k-anonymizer whose candidate family is *complete*: the groups of an
// optimal solution all appear in it (with their exact costs), which is
// what makes this family interesting for small m, in contrast to the
// diameter-weighted families of §4.2/§4.3 whose weights only bound costs.
//
// The family has at most 2^m · n/k useful sets, so the approach is
// exponential in m but polynomial in n — complementary to Theorem 4.1's
// O(n^{2k}), matching the paper's advice that its own algorithms are
// "best applied in cases with high-dimensional records".
package pattern

import (
	"context"
	"fmt"
	"math/bits"

	"kanon/internal/core"
	"kanon/internal/cover"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/relation"
)

// MaxColumns bounds the 2^m pattern enumeration.
const MaxColumns = 20

// Result mirrors algo.Result for the pattern solver.
type Result struct {
	K          int
	Partition  *core.Partition
	Suppressor *core.Suppressor
	Anonymized *relation.Table
	Cost       int
	// FamilySize is the number of (pattern, bucket) candidate groups
	// offered to the greedy cover.
	FamilySize int
}

// AnonymizeCtx runs greedy set cover over the pattern family and
// converts the cover into a k-anonymization. Requires m ≤ MaxColumns.
//
// The greedy ratio for a candidate group S under pattern P is
// (per-row stars) · |S| / |S ∩ uncovered| — the natural weighted set
// cover objective where a set's weight is its total star cost. Unlike
// the diameter-weighted greedy, the weight here is the group's exact
// final cost.
//
// The context is checked once per enumerated pattern (each pattern
// costs an O(n) bucket pass) and per greedy round via the cover
// package, so the 2^m enumeration aborts promptly when the caller
// cancels or times out. Instrumentation attaches under sp (nil
// disables it): a "pattern.family" span around the 2^m enumeration, a
// "pattern.suppress" span around the final suppression, cover spans
// via the cover package, and counters for patterns enumerated and
// candidate sets generated. Tracing never changes the result.
func AnonymizeCtx(ctx context.Context, t *relation.Table, k int, sp *obs.Span) (*Result, error) {
	n, m := t.Len(), t.Degree()
	if k < 1 {
		return nil, fmt.Errorf("pattern: k = %d < 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("pattern: n = %d < k = %d", n, k)
	}
	if m > MaxColumns {
		return nil, fmt.Errorf("pattern: m = %d exceeds limit %d", m, MaxColumns)
	}

	fs := sp.Start("pattern.family")
	var family []cover.Set
	emit := func(g []int, starCols int) {
		if len(g) < k {
			return
		}
		// Weight = total stars for this group: |g| rows × starCols.
		family = append(family, cover.Set{Members: g, Weight: len(g) * starCols})
	}
	if pk := metric.NewRadixPacker(t); pk != nil {
		// Fast path: each row's projection onto the pattern hashes
		// perfectly into a uint64 (mixed-radix digits precomputed per
		// row), so the 2^m bucket passes do integer map operations
		// instead of building and hashing byte-string keys. Buckets are
		// emitted in first-occurrence order — the exact order the
		// string path produces — so the family, and therefore the
		// greedy cover, is byte-identical.
		buckets := map[uint64][]int{}
		var order []uint64
		for pat := 0; pat < 1<<uint(m); pat++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("pattern: family: %w", err)
			}
			starCols := m - bits.OnesCount(uint(pat))
			clear(buckets)
			order = order[:0]
			for i := 0; i < n; i++ {
				key := pk.ProjectionKey(i, uint(pat))
				if _, ok := buckets[key]; !ok {
					order = append(order, key)
				}
				buckets[key] = append(buckets[key], i)
			}
			for _, key := range order {
				emit(buckets[key], starCols)
			}
		}
	} else {
		for pat := 0; pat < 1<<uint(m); pat++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("pattern: family: %w", err)
			}
			starCols := m - bits.OnesCount(uint(pat))
			buckets := map[string][]int{}
			var order []string
			for i := 0; i < n; i++ {
				key := patternKey(t.Row(i), pat)
				if _, ok := buckets[key]; !ok {
					order = append(order, key)
				}
				buckets[key] = append(buckets[key], i)
			}
			for _, key := range order {
				emit(buckets[key], starCols)
			}
		}
	}

	fs.End()
	sp.Counter("pattern.patterns_enumerated").Add(int64(1) << uint(m))
	sp.Counter("pattern.sets_generated").Add(int64(len(family)))

	chosen, err := cover.GreedyCtx(ctx, n, family, sp)
	if err != nil {
		return nil, fmt.Errorf("pattern: %w", err)
	}
	p, err := cover.ReduceTraced(n, chosen, k, sp)
	if err != nil {
		return nil, fmt.Errorf("pattern: %w", err)
	}
	if err := p.Validate(n, k, 0); err != nil {
		return nil, fmt.Errorf("pattern: internal: %w", err)
	}
	ss := sp.Start("pattern.suppress")
	sup := p.Suppressor(t)
	anon := sup.Apply(t)
	ss.End()
	if !anon.IsKAnonymous(k) {
		return nil, fmt.Errorf("pattern: internal: output not %d-anonymous", k)
	}
	return &Result{
		K:          k,
		Partition:  p,
		Suppressor: sup,
		Anonymized: anon,
		Cost:       sup.Stars(),
		FamilySize: len(family),
	}, nil
}

// patternKey renders the row restricted to the kept columns in pat.
func patternKey(r relation.Row, pat int) string {
	b := make([]byte, 0, len(r)*3)
	for j, v := range r {
		if pat&(1<<uint(j)) == 0 {
			continue
		}
		b = append(b, byte(j), byte(v), byte(v>>8))
	}
	return string(b)
}
