// Package generalize extends the suppression machinery to generalization
// hierarchies — the paper's §1 setting where "the specification of
// 20-40, R*, etc. as admissible generalizations must be given prior to
// the input". Suppression is the special case of a two-level hierarchy
// (value → ★), which is why the paper studies it in isolation; this
// package reproduces the intro's hospital example and lets the
// ball-greedy algorithm run under generalization costs.
//
// Hierarchies are kanon-hierarchy/1 specs compiled by internal/hierarchy.
// Unlike that package's full-domain search, this is local recoding: a
// group of rows generalizes each column to the lowest level at which
// its values meet, and a cell costs the levels it climbs. The induced
// pairwise dissimilarity
//
//	d(u, v) = Σ_j 2·meet_j(u, v)
//
// (meet_j is the lowest level where u[j] and v[j] share a generalized
// code) is a sum of tree metrics, hence a metric — so the cover
// machinery of §4.2/§4.3 applies unchanged.
package generalize

import (
	"context"
	"fmt"

	"kanon/internal/core"
	"kanon/internal/cover"
	"kanon/internal/hierarchy"
	"kanon/internal/metric"
	"kanon/internal/relation"
)

// Result is a generalization outcome: string-valued output rows (labels
// may be internal hierarchy nodes, so they live outside the original
// alphabet), the partition used, and the total climb cost.
type Result struct {
	K         int
	Partition *core.Partition
	Rows      [][]string
	Cost      int
}

// meet returns the lowest level at which every row of g shares one
// generalized code in column j (compiled as c), and that code's label.
// Codes that never meet (a pre-suppressed cell under a root not
// spelled "*") are released as "*" at the root level.
func meet(t *relation.Table, g []int, j int, c *hierarchy.Column) (int, string) {
	for l := 0; l <= c.Height; l++ {
		code := c.Code(l, t.Row(g[0])[j])
		same := true
		for _, i := range g[1:] {
			if c.Code(l, t.Row(i)[j]) != code {
				same = false
				break
			}
		}
		if same {
			return l, c.Label(l, code)
		}
	}
	return c.Height, relation.StarString
}

// Apply generalizes each group of p column-wise to the lowest level at
// which its values meet, returning the output rows and total cost (sum
// over cells of levels climbed; already-suppressed cells cost nothing).
func Apply(t *relation.Table, p *core.Partition, cols []*hierarchy.Column, k int) (*Result, error) {
	if len(cols) != t.Degree() {
		return nil, fmt.Errorf("generalize: %d hierarchies for degree %d", len(cols), t.Degree())
	}
	if err := p.Validate(t.Len(), k, 0); err != nil {
		return nil, fmt.Errorf("generalize: %w", err)
	}
	rows := make([][]string, t.Len())
	cost := 0
	for _, g := range p.Groups {
		for _, i := range g {
			rows[i] = make([]string, t.Degree())
		}
		for j, c := range cols {
			level, label := meet(t, g, j, c)
			for _, i := range g {
				rows[i][j] = label
				if t.Row(i)[j] != relation.Star {
					cost += level
				}
			}
		}
	}
	return &Result{K: k, Partition: p, Rows: rows, Cost: cost}, nil
}

// Distance returns the hierarchy-induced dissimilarity between rows i
// and j: per column, the levels both cells climb to where they meet.
func Distance(t *relation.Table, cols []*hierarchy.Column, i, j int) int {
	d := 0
	for col, c := range cols {
		l, _ := meet(t, []int{i, j}, col, c)
		d += 2 * l
	}
	return d
}

// AnonymizeCtx groups rows with the paper's ball-greedy cover under
// the generalization metric of spec (compiled once against t) and
// generalizes each group, yielding a k-anonymous generalized release.
//
// The O(n²) hierarchy-distance matrix fill polls ctx per row and
// shards rows across workers (0 means all CPUs, 1 the sequential
// path), and the greedy cover polls per round, so a cancelled run
// aborts promptly. The release is byte-identical for every worker
// count; a non-nil error wraps ctx.Err().
func AnonymizeCtx(ctx context.Context, t *relation.Table, k int, spec *hierarchy.Spec, workers int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("generalize: k = %d < 1", k)
	}
	if t.Len() < k {
		return nil, fmt.Errorf("generalize: n = %d < k = %d", t.Len(), k)
	}
	cols, err := hierarchy.Compile(spec, t)
	if err != nil {
		return nil, fmt.Errorf("generalize: %w", err)
	}
	if k == 1 {
		p := &core.Partition{}
		for i := 0; i < t.Len(); i++ {
			p.Groups = append(p.Groups, []int{i})
		}
		return Apply(t, p, cols, k)
	}
	mat, err := metric.NewMatrixFuncCtx(ctx, t.Len(), workers, func(i, j int) int { return Distance(t, cols, i, j) })
	if err != nil {
		return nil, fmt.Errorf("generalize: %w", err)
	}
	chosen, err := cover.GreedyBallsCtx(ctx, mat, k, workers, nil)
	if err != nil {
		return nil, fmt.Errorf("generalize: %w", err)
	}
	p, err := cover.Reduce(t.Len(), chosen, k)
	if err != nil {
		return nil, fmt.Errorf("generalize: %w", err)
	}
	// Oversize groups force generalization to the join of many values;
	// the (k, 2k−1) split of §4.1 with proximity ordering recovers
	// fine-grained groups (on the §1 hospital table, exactly the
	// paper's published grouping).
	p.SplitOversizeSorted(k, mat)
	res, err := Apply(t, p, cols, k)
	if err != nil {
		return nil, err
	}
	if !isKAnonymousRows(res.Rows, k) {
		return nil, fmt.Errorf("generalize: internal: output not %d-anonymous", k)
	}
	return res, nil
}

// isKAnonymousRows checks k-anonymity of string rows directly.
func isKAnonymousRows(rows [][]string, k int) bool {
	counts := map[string]int{}
	keys := make([]string, len(rows))
	for i, r := range rows {
		key := ""
		for _, c := range r {
			key += c + "\x00"
		}
		keys[i] = key
		counts[key]++
	}
	for _, key := range keys {
		if counts[key] < k {
			return false
		}
	}
	return true
}
