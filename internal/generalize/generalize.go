// Package generalize extends the suppression machinery to full domain
// generalization hierarchies (DGHs) — the paper's §1 setting where "the
// specification of 20-40, R*, etc. as admissible generalizations must be
// given prior to the input". Suppression is the special case of a
// two-level hierarchy (value → ★), which is why the paper studies it in
// isolation; this package reproduces the intro's hospital example and
// lets the ball-greedy algorithm run under generalization costs.
//
// A Hierarchy is a tree over value labels with a single root. The cost
// of generalizing a cell from value v to an ancestor a is the number of
// tree edges climbed. A group of rows generalizes each column to the
// least common ancestor of its values, and the induced pairwise
// dissimilarity
//
//	d(u, v) = Σ_j [climb(u[j] → lca) + climb(v[j] → lca)]
//
// is a sum of tree metrics, hence a metric — so the cover machinery of
// §4.2/§4.3 applies unchanged.
package generalize

import (
	"context"
	"fmt"

	"kanon/internal/core"
	"kanon/internal/cover"
	"kanon/internal/metric"
	"kanon/internal/relation"
)

// Hierarchy is a generalization tree over string labels. Leaves are the
// raw attribute values; the root is typically relation.StarString.
type Hierarchy struct {
	root   string
	parent map[string]string
}

// NewHierarchy returns a hierarchy with only a root label.
func NewHierarchy(root string) *Hierarchy {
	return &Hierarchy{root: root, parent: make(map[string]string)}
}

// Suppression returns the two-level hierarchy value → ★ that makes
// generalization coincide with the paper's suppression model. Values not
// added explicitly are adopted lazily: any unknown label is treated as a
// direct child of the root.
func Suppression() *Hierarchy { return NewHierarchy(relation.StarString) }

// Add declares child's parent. It returns an error on conflicting
// re-declarations, on a child equal to the root, or if the edge would
// close a cycle.
func (h *Hierarchy) Add(child, parent string) error {
	if child == h.root {
		return fmt.Errorf("generalize: cannot give the root %q a parent", child)
	}
	if prev, ok := h.parent[child]; ok && prev != parent {
		return fmt.Errorf("generalize: %q already has parent %q", child, prev)
	}
	// Walk up from parent; reaching child means a cycle.
	for p := parent; p != h.root; {
		if p == child {
			return fmt.Errorf("generalize: edge %q→%q closes a cycle", child, parent)
		}
		next, ok := h.parent[p]
		if !ok {
			break // parent chain not yet declared; it attaches to root lazily
		}
		p = next
	}
	h.parent[child] = parent
	return nil
}

// MustAdd is Add that panics on error; for fixed example hierarchies.
func (h *Hierarchy) MustAdd(child, parent string) {
	if err := h.Add(child, parent); err != nil {
		panic(err)
	}
}

// Root returns the hierarchy's root label.
func (h *Hierarchy) Root() string { return h.root }

// chain returns the path from value up to and including the root.
// Unknown labels are treated as direct children of the root.
func (h *Hierarchy) chain(value string) []string {
	out := []string{value}
	cur := value
	for cur != h.root {
		next, ok := h.parent[cur]
		if !ok {
			next = h.root
		}
		out = append(out, next)
		cur = next
	}
	return out
}

// Chain returns a copy of the path from value up to and including the
// root. Unknown labels attach directly below the root.
func (h *Hierarchy) Chain(value string) []string {
	return append([]string(nil), h.chain(value)...)
}

// Parent returns the label one edge above value; the root is its own
// parent, and unknown labels parent to the root.
func (h *Hierarchy) Parent(value string) string {
	if value == h.root {
		return h.root
	}
	if p, ok := h.parent[value]; ok {
		return p
	}
	return h.root
}

// Level returns the number of edges from value down from the root — the
// generalization headroom of the value.
func (h *Hierarchy) Level(value string) int { return len(h.chain(value)) - 1 }

// LCA returns the least common ancestor of two labels and the number of
// edges each climbs to reach it.
func (h *Hierarchy) LCA(a, b string) (lca string, climbA, climbB int) {
	ca, cb := h.chain(a), h.chain(b)
	depth := map[string]int{}
	for i, v := range ca {
		if _, ok := depth[v]; !ok {
			depth[v] = i
		}
	}
	for j, v := range cb {
		if i, ok := depth[v]; ok {
			return v, i, j
		}
	}
	// Unreachable: both chains end at the root.
	return h.root, len(ca) - 1, len(cb) - 1
}

// LCAAll folds LCA over a label set.
func (h *Hierarchy) LCAAll(values []string) string {
	if len(values) == 0 {
		return h.root
	}
	cur := values[0]
	for _, v := range values[1:] {
		cur, _, _ = h.LCA(cur, v)
	}
	return cur
}

// Climb returns the edge count from value up to ancestor, or an error if
// ancestor is not on value's chain.
func (h *Hierarchy) Climb(value, ancestor string) (int, error) {
	for i, v := range h.chain(value) {
		if v == ancestor {
			return i, nil
		}
	}
	return 0, fmt.Errorf("generalize: %q is not an ancestor of %q", ancestor, value)
}

// Scheme assigns one hierarchy per column. A nil entry means plain
// suppression for that column.
type Scheme []*Hierarchy

// ForTable returns an all-suppression scheme matching t's degree.
func ForTable(t *relation.Table) Scheme {
	s := make(Scheme, t.Degree())
	for j := range s {
		s[j] = Suppression()
	}
	return s
}

func (s Scheme) col(j int) *Hierarchy {
	if s[j] == nil {
		return Suppression()
	}
	return s[j]
}

// Result is a generalization outcome: string-valued output rows (labels
// may be internal hierarchy nodes, so they live outside the original
// alphabet), the partition used, and the total climb cost.
type Result struct {
	K         int
	Partition *core.Partition
	Rows      [][]string
	Cost      int
}

// Apply generalizes each group of p to column-wise LCAs under the
// scheme, returning the output rows and total cost (sum over cells of
// edges climbed).
func Apply(t *relation.Table, p *core.Partition, s Scheme, k int) (*Result, error) {
	if len(s) != t.Degree() {
		return nil, fmt.Errorf("generalize: scheme has %d hierarchies for degree %d", len(s), t.Degree())
	}
	if err := p.Validate(t.Len(), k, 0); err != nil {
		return nil, fmt.Errorf("generalize: %w", err)
	}
	rows := make([][]string, t.Len())
	cost := 0
	for _, g := range p.Groups {
		for j := 0; j < t.Degree(); j++ {
			h := s.col(j)
			vals := make([]string, len(g))
			for gi, i := range g {
				vals[gi] = t.Schema().Attribute(j).Value(t.Row(i)[j])
			}
			lca := h.LCAAll(vals)
			for gi, i := range g {
				if rows[i] == nil {
					rows[i] = make([]string, t.Degree())
				}
				rows[i][j] = lca
				climb, err := h.Climb(vals[gi], lca)
				if err != nil {
					return nil, fmt.Errorf("generalize: internal: %w", err)
				}
				cost += climb
			}
		}
	}
	return &Result{K: k, Partition: p, Rows: rows, Cost: cost}, nil
}

// Distance returns the scheme-induced dissimilarity between rows i and
// j: per column, the edges both cells climb to their LCA.
func Distance(t *relation.Table, s Scheme, i, j int) int {
	d := 0
	for col := 0; col < t.Degree(); col++ {
		h := s.col(col)
		a := t.Schema().Attribute(col).Value(t.Row(i)[col])
		b := t.Schema().Attribute(col).Value(t.Row(j)[col])
		_, ca, cb := h.LCA(a, b)
		d += ca + cb
	}
	return d
}

// AnonymizeCtx groups rows with the paper's ball-greedy cover under
// the generalization metric and generalizes each group, yielding a
// k-anonymous generalized release.
//
// The O(n²) hierarchy-distance matrix fill polls ctx per row and
// shards rows across workers (0 means all CPUs, 1 the sequential
// path), and the greedy cover polls per round, so a cancelled run
// aborts promptly. The release is byte-identical for every worker
// count; a non-nil error wraps ctx.Err().
func AnonymizeCtx(ctx context.Context, t *relation.Table, k int, s Scheme, workers int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("generalize: k = %d < 1", k)
	}
	if t.Len() < k {
		return nil, fmt.Errorf("generalize: n = %d < k = %d", t.Len(), k)
	}
	if len(s) != t.Degree() {
		return nil, fmt.Errorf("generalize: scheme has %d hierarchies for degree %d", len(s), t.Degree())
	}
	if k == 1 {
		p := &core.Partition{}
		for i := 0; i < t.Len(); i++ {
			p.Groups = append(p.Groups, []int{i})
		}
		return Apply(t, p, s, k)
	}
	mat, err := metric.NewMatrixFuncCtx(ctx, t.Len(), workers, func(i, j int) int { return Distance(t, s, i, j) })
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
	res, err := Apply(t, p, s, k)
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
