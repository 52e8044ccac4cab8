package core

import (
	"context"
	"fmt"

	"kanon/internal/metric"
	"kanon/internal/relation"
)

// Column-weighted costs. The paper charges every suppressed entry 1;
// real releases value columns differently (starring a rare diagnosis
// hurts more than starring a zip digit). All of §4's machinery survives
// weighting because the weighted disagreement count
//
//	d_w(u, v) = Σ_j w_j · [u[j] ≠ v[j]]
//
// is still a metric (a nonnegative combination of per-column metrics),
// so ball families, Lemma 4.2, the greedy analysis, and Reduce carry
// over verbatim; only the cost accounting changes.

// Weights holds one nonnegative integer weight per column. A nil
// Weights means all-ones (the paper's objective).
type Weights []int

// UniformWeights returns the all-ones weight vector of length m.
func UniformWeights(m int) Weights {
	w := make(Weights, m)
	for j := range w {
		w[j] = 1
	}
	return w
}

// Validate checks the weight vector against a table's degree.
func (w Weights) Validate(m int) error {
	if w == nil {
		return nil
	}
	if len(w) != m {
		return fmt.Errorf("core: %d weights for degree %d", len(w), m)
	}
	for j, x := range w {
		if x < 0 {
			return fmt.Errorf("core: negative weight %d for column %d", x, j)
		}
	}
	return nil
}

// col returns the weight of column j (1 when w is nil).
func (w Weights) col(j int) int {
	if w == nil {
		return 1
	}
	return w[j]
}

// AnonWeighted returns the weighted Anon(S): each non-uniform column j
// costs |S|·w_j.
func AnonWeighted(t *relation.Table, indices []int, w Weights) int {
	if len(indices) <= 1 {
		return 0
	}
	m := t.Degree()
	first := t.Row(indices[0])
	cost := 0
	for j := 0; j < m; j++ {
		v := first[j]
		for _, i := range indices[1:] {
			if t.Row(i)[j] != v {
				cost += len(indices) * w.col(j)
				break
			}
		}
	}
	return cost
}

// WeightedStars returns the weighted objective value of a suppressor:
// Σ over suppressed entries (i, j) of w_j.
func (s *Suppressor) WeightedStars(w Weights) int {
	total := 0
	for _, row := range s.mask {
		for j, b := range row {
			if b {
				total += w.col(j)
			}
		}
	}
	return total
}

// WeightedMatrixCtx builds the d_w distance matrix for a table (the
// plain Hamming matrix when w is nil). The O(n²m) fill polls ctx per
// row and shards rows across workers, like the unweighted
// NewMatrixCtx. The matrix is byte-identical for every worker count;
// a non-nil error wraps ctx.Err().
func WeightedMatrixCtx(ctx context.Context, t *relation.Table, w Weights, workers int) (*metric.Matrix, error) {
	if w == nil {
		return metric.NewMatrixCtx(ctx, t, workers)
	}
	return metric.NewMatrixFuncCtx(ctx, t.Len(), workers, func(i, j int) int {
		ri, rj := t.Row(i), t.Row(j)
		d := 0
		for c := range ri {
			if ri[c] != rj[c] {
				d += w.col(c)
			}
		}
		return d
	})
}
