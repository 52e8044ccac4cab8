// Package hierarchy solves k-anonymity by full-domain generalization:
// instead of suppressing individual entries (the paper's model), every
// column is generalized uniformly to one level of a per-attribute
// hierarchy, and rows that still sit in undersized classes are
// suppressed whole, up to a budget.
//
// The subsystem has four parts. A Spec describes the hierarchies (a
// JSON or CSV sidecar, or derived from the data); Compile turns it
// into constant-time code lookup tables. A CountTree over the distinct
// base tuples checks any lattice node in one O(distinct·m) walk
// without materializing the generalized table. Search finds the
// minimum-NCP k-anonymous cut of the generalization lattice by branch
// and bound: a greedy descent from the root sets an incumbent, and a
// top-down sweep walks only the nodes that neither OLA-style
// predictive tags nor a per-column NCP lower bound settle (a greedy
// beam answers when the lattice is huge). Solve glues them together
// and materializes the winning release.
package hierarchy

import (
	"context"
	"fmt"

	"kanon/internal/core"
	"kanon/internal/obs"
	"kanon/internal/relation"
)

// Options configures Solve.
type Options struct {
	// MaxSuppress is the row-suppression budget: how many rows may be
	// dropped (released fully starred) instead of forcing the whole
	// table to a coarser cut.
	MaxSuppress int
	// Spec declares the hierarchies; nil derives one from the data
	// (intervals for integer columns, balanced trees otherwise).
	Spec *Spec
	// Workers bounds search parallelism as SearchOptions.Workers does
	// (0 or negative means all CPUs); results never depend on it.
	Workers int
	// MaxNodes and BeamWidth tune the lattice search (0 = defaults).
	MaxNodes, BeamWidth int
	// Ctx cancels the search between count-tree walks.
	Ctx context.Context
	// Trace receives phase spans, counters, and gauges.
	Trace *obs.Span
}

// Result is a solved hierarchy release.
type Result struct {
	// Levels is the chosen generalization level per column.
	Levels []int
	// Rows is the released table: generalized labels, with suppressed
	// rows rendered fully starred.
	Rows [][]string
	// Groups lists row indices per equivalence class, including one
	// class for the suppressed rows (if any), in normalized order.
	Groups [][]int
	// Suppressed lists the suppressed row indices in ascending order.
	Suppressed []int
	// Cost counts released cells that differ from the input, the
	// nearest analogue of the paper's suppression count.
	Cost int
	// NCP is the release's normalized certainty penalty in [0,1].
	NCP float64
	// Optimal reports whether the lattice was enumerated exhaustively,
	// making Levels the provably minimum-NCP k-anonymous cut.
	Optimal bool
	// Search carries the lattice-search telemetry.
	Search *SearchResult
}

// Solve finds and materializes the minimum-NCP k-anonymous
// generalization of t.
func Solve(t *relation.Table, k int, opt *Options) (*Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	n, m := t.Len(), t.Degree()
	if k < 1 {
		return nil, fmt.Errorf("hierarchy: k must be ≥ 1, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("hierarchy: k=%d exceeds table size %d", k, n)
	}
	if m == 0 {
		return nil, fmt.Errorf("hierarchy: table has no columns")
	}
	if opt.MaxSuppress < 0 {
		return nil, fmt.Errorf("hierarchy: suppression budget %d < 0", opt.MaxSuppress)
	}

	spec := opt.Spec
	if spec == nil {
		sp := opt.Trace.Start("hierarchy.derive")
		spec = Derive(t)
		sp.End()
	}
	sp := opt.Trace.Start("hierarchy.columns")
	cols, err := Compile(spec, t)
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = opt.Trace.Start("hierarchy.count_tree")
	ct := BuildCountTree(t, cols)
	sp.End()
	opt.Trace.Gauge("hierarchy.count_tree_nodes").Set(int64(ct.Nodes()))
	opt.Trace.Gauge("hierarchy.distinct_tuples").Set(int64(ct.Distinct()))

	sp = opt.Trace.Start("hierarchy.search")
	sr, err := Search(ct, k, opt.MaxSuppress, &SearchOptions{
		Workers:   opt.Workers,
		MaxNodes:  opt.MaxNodes,
		BeamWidth: opt.BeamWidth,
		Ctx:       opt.Ctx,
		Trace:     sp,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	opt.Trace.Gauge("hierarchy.lattice_nodes").Set(sr.LatticeNodes)
	opt.Trace.Counter("hierarchy.nodes_walked").Add(int64(sr.Walked))
	opt.Trace.Counter("hierarchy.tags_anonymous").Add(int64(sr.TagsAnonymous))
	opt.Trace.Counter("hierarchy.tags_failing").Add(int64(sr.TagsFailing))
	opt.Trace.Counter("hierarchy.tag_hits").Add(int64(sr.TagHits))
	opt.Trace.Counter("hierarchy.nodes_pruned").Add(int64(sr.Pruned))

	sp = opt.Trace.Start("hierarchy.materialize")
	res := materialize(t, cols, k, sr)
	sp.End()

	// Self-check: recount the materialized release. Every kept class
	// must have ≥ k rows and the suppression budget must hold; a
	// violation here is a search or materialization bug.
	if len(res.Suppressed) > opt.MaxSuppress {
		return nil, fmt.Errorf("hierarchy: internal error: cut suppresses %d rows, budget %d", len(res.Suppressed), opt.MaxSuppress)
	}
	for _, g := range res.Groups {
		if len(g) < k && !isSuppressedGroup(res, g) {
			return nil, fmt.Errorf("hierarchy: internal error: released class of size %d < k=%d", len(g), k)
		}
	}
	return res, nil
}

// isSuppressedGroup reports whether every row of g was suppressed (the
// all-star class is exempt from the size-k floor: suppressed rows
// carry no information to link).
func isSuppressedGroup(res *Result, g []int) bool {
	if len(res.Suppressed) == 0 {
		return false
	}
	sup := make(map[int]bool, len(res.Suppressed))
	for _, i := range res.Suppressed {
		sup[i] = true
	}
	for _, i := range g {
		if !sup[i] {
			return false
		}
	}
	return true
}

// materialize renders the winning cut: one pass to size the classes,
// one to emit labels, with undersized classes suppressed whole.
func materialize(t *relation.Table, cols []*Column, k int, sr *SearchResult) *Result {
	n, m := t.Len(), t.Degree()
	levels := sr.Levels
	// Class keys are the generalized code tuples, packed into strings.
	keyOf := func(i int) string {
		b := make([]byte, 0, 4*m)
		row := t.Row(i)
		for j := 0; j < m; j++ {
			c := cols[j].Code(levels[j], row[j])
			b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		return string(b)
	}
	size := make(map[string]int, n)
	for i := 0; i < n; i++ {
		size[keyOf(i)]++
	}
	rows := make([][]string, n)
	members := make(map[string][]int, len(size))
	var keys []string
	var suppressed []int
	var supGroup []int
	cost := 0
	for i := 0; i < n; i++ {
		key := keyOf(i)
		row := t.Row(i)
		out := make([]string, m)
		if size[key] < k {
			suppressed = append(suppressed, i)
			supGroup = append(supGroup, i)
			for j := 0; j < m; j++ {
				out[j] = relation.StarString
				if row[j] != relation.Star {
					cost++
				}
			}
		} else {
			if members[key] == nil {
				keys = append(keys, key)
			}
			members[key] = append(members[key], i)
			for j := 0; j < m; j++ {
				out[j] = cols[j].Label(levels[j], cols[j].Code(levels[j], row[j]))
				if out[j] != t.Schema().Attribute(j).Value(row[j]) {
					cost++
				}
			}
		}
		rows[i] = out
	}
	groups := make([][]int, 0, len(keys)+1)
	for _, key := range keys {
		groups = append(groups, members[key])
	}
	if len(supGroup) > 0 {
		groups = append(groups, supGroup)
	}
	p := &core.Partition{Groups: groups}
	p.Normalize()
	return &Result{
		Levels:     levels,
		Rows:       rows,
		Groups:     p.Groups,
		Suppressed: suppressed,
		Cost:       cost,
		NCP:        sr.NCP,
		Optimal:    sr.Exhaustive,
		Search:     sr,
	}
}
