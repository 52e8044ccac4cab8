package hierarchy

import (
	"slices"
	"sort"

	"kanon/internal/relation"
)

// CountTree is a trie over the table's distinct base-value tuples with
// multiplicities, in the style of ARX's count tree: checking whether a
// lattice node is k-anonymous walks the trie once, merging sibling
// branches whose codes generalize to the same label, without ever
// materializing the generalized table. One build serves every node of
// the lattice.
type CountTree struct {
	cols []*Column
	n    int
	// children[d] holds, for every depth-d trie node, the index range
	// of its children at depth d+1 via span[d]; codes[d][i] is the base
	// code of the i-th depth-d node. counts holds row multiplicities at
	// the deepest level. Nodes at each depth are stored in
	// lexicographic tuple order, so sibling ranges are contiguous.
	codes  [][]int32
	span   [][]int32 // span[d][i]..span[d][i+1] indexes depth d+1 (d < m-1)
	counts []int32   // multiplicity per deepest node
	nodes  int
}

// BuildCountTree sorts the table's rows lexicographically by base code
// and folds equal prefixes into trie layers. O(n log n · m) build,
// O(distinct tuples · m) memory.
func BuildCountTree(t *relation.Table, cols []*Column) *CountTree {
	n, m := t.Len(), t.Degree()
	ct := &CountTree{cols: cols, n: n}
	if n == 0 || m == 0 {
		return ct
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := t.Row(order[a]), t.Row(order[b])
		for j := 0; j < m; j++ {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return false
	})
	ct.codes = make([][]int32, m)
	ct.span = make([][]int32, m-1)
	// prev[d] is the code of the last node emitted at depth d.
	prevRow := make(relation.Row, m)
	first := true
	for _, i := range order {
		row := t.Row(i)
		// diverge is the first depth where this tuple leaves the
		// previous one's path.
		diverge := 0
		if !first {
			for diverge < m && row[diverge] == prevRow[diverge] {
				diverge++
			}
			if diverge == m {
				ct.counts[len(ct.counts)-1]++
				continue
			}
		}
		for d := diverge; d < m; d++ {
			if d < m-1 {
				// The new child range at depth d+1 starts where the
				// next layer currently ends.
				ct.span[d] = append(ct.span[d], int32(len(ct.codes[d+1])))
			}
			ct.codes[d] = append(ct.codes[d], row[d])
			ct.nodes++
		}
		ct.counts = append(ct.counts, 1)
		copy(prevRow, row)
		first = false
	}
	// Close the span ranges with a sentinel end offset.
	for d := 0; d < m-1; d++ {
		ct.span[d] = append(ct.span[d], int32(len(ct.codes[d+1])))
	}
	return ct
}

// Rows returns the table size the tree was built from.
func (ct *CountTree) Rows() int { return ct.n }

// Distinct returns the number of distinct base tuples (trie leaves).
func (ct *CountTree) Distinct() int { return len(ct.counts) }

// Nodes returns the total trie node count, reported as a gauge.
func (ct *CountTree) Nodes() int { return ct.nodes }

// Check walks the trie at one lattice node. It returns whether the
// node is k-anonymous within the suppression budget maxSup, how many
// rows fall in undersized classes (and would be suppressed), and the
// release's NCP in [0,1]: kept rows pay their per-cell certainty
// penalty, suppressed rows pay 1 per cell. By default the walk aborts
// as soon as suppressed exceeds maxSup (ok=false, ncp meaningless);
// full=true always completes it, which scoring callers use to rank
// failing nodes by their true suppression count. Check builds a
// walker for one call; the search keeps one per worker instead.
func (ct *CountTree) Check(levels []int, k, maxSup int, full bool) (ok bool, suppressed int, ncp float64) {
	return ct.newWalker().check(levels, k, maxSup, full)
}

// walker is reusable count-tree walk state. Every buffer is sized
// once from the tree, so after construction a check allocates nothing.
// A walker is not safe for concurrent use: the search gives each
// worker its own.
type walker struct {
	ct *CountTree
	// Per depth d: sib[d] holds a gathered sibling set (sib[0] is the
	// whole first layer, 0..len-1); grouped[d] holds the set's nodes
	// regrouped by generalized code; distinct[d] lists the codes the
	// set touches; slots[d], indexed by generalized code and sized to
	// the column's largest level, counts and then locates each code's
	// group. Slots are all zero between merges.
	sib, grouped, distinct, slots [][]int32

	levels     []int
	k, limit   int
	suppressed int
	keptNCP    float64
	aborted    bool
}

// newWalker sizes a walker's buffers: a sibling set at depth d holds
// at most the whole depth-d layer.
func (ct *CountTree) newWalker() *walker {
	m := len(ct.codes)
	w := &walker{
		ct:       ct,
		sib:      make([][]int32, m),
		grouped:  make([][]int32, m),
		distinct: make([][]int32, m),
		slots:    make([][]int32, m),
	}
	for d := 0; d < m; d++ {
		layer := len(ct.codes[d])
		w.sib[d] = make([]int32, 0, layer)
		w.grouped[d] = make([]int32, layer)
		w.slots[d] = make([]int32, slices.Max(ct.cols[d].Sizes()))
		w.distinct[d] = make([]int32, 0, len(w.slots[d]))
	}
	if m > 0 {
		for i := range len(ct.codes[0]) {
			w.sib[0] = append(w.sib[0], int32(i))
		}
	}
	return w
}

// check is Check on reused buffers.
func (w *walker) check(levels []int, k, maxSup int, full bool) (ok bool, suppressed int, ncp float64) {
	ct := w.ct
	if ct.n == 0 || len(ct.codes) == 0 {
		return true, 0, 0
	}
	w.levels, w.k, w.limit = levels, k, maxSup
	if full {
		w.limit = ct.n
	}
	w.suppressed, w.keptNCP, w.aborted = 0, 0, false
	w.walk(w.sib[0], 0, 0)
	if w.aborted {
		return false, w.suppressed, 0
	}
	m := len(ct.cols)
	ncp = (w.keptNCP + float64(w.suppressed)*float64(m)) / (float64(ct.n) * float64(m))
	return w.suppressed <= maxSup, w.suppressed, ncp
}

// walk merges the sibling set `nodes` (trie indices at `depth`, in
// ascending order) by generalized code, then recurses into the
// concatenated child ranges of each merged group or, at the deepest
// layer, settles the group's rows. Groups are visited in ascending
// code, so float sums — and NCP — accumulate in one fixed order.
//
// The merge is a stable counting pass over only the codes the set
// touches: count each code, sort the few distinct codes, turn counts
// into start offsets, then scatter the nodes forward into their
// groups, which keeps each group ascending. After the scatter
// slots[g] is group g's end offset; the slots are cleared on every
// return, an aborted walk's included.
func (w *walker) walk(nodes []int32, depth int, pathNCP float64) {
	ct := w.ct
	col, level := ct.cols[depth], w.levels[depth]
	codes, slots := ct.codes[depth], w.slots[depth]
	distinct := w.distinct[depth][:0]
	for _, nd := range nodes {
		g := col.Code(level, codes[nd])
		if slots[g] == 0 {
			distinct = append(distinct, g)
		}
		slots[g]++
	}
	slices.Sort(distinct)
	off := int32(0)
	for _, g := range distinct {
		off, slots[g] = off+slots[g], off
	}
	grouped := w.grouped[depth]
	for _, nd := range nodes {
		g := col.Code(level, codes[nd])
		grouped[slots[g]] = nd
		slots[g]++
	}
	defer clearSlots(slots, distinct)

	last := depth == len(ct.cols)-1
	start := int32(0)
	for _, g := range distinct {
		group := grouped[start:slots[g]]
		start = slots[g]
		ncp := pathNCP + col.NCP(level, g)
		if last {
			w.settle(group, ncp)
		} else {
			w.walk(w.children(group, depth), depth+1, ncp)
		}
		if w.aborted {
			return
		}
	}
}

// children concatenates a merged group's child ranges. The group is
// ascending and spans are monotone, so the result is ascending too.
func (w *walker) children(group []int32, depth int) []int32 {
	span := w.ct.span[depth]
	out := w.sib[depth+1][:0]
	for _, nd := range group {
		for c := span[nd]; c < span[nd+1]; c++ {
			out = append(out, c)
		}
	}
	return out
}

// settle closes a deepest-layer group: its size is the sum of its
// leaves' row multiplicities. An undersized group is suppressed; each
// row of a kept one pays rowNCP, its cells' summed penalty.
func (w *walker) settle(group []int32, rowNCP float64) {
	size := 0
	for _, nd := range group {
		size += int(w.ct.counts[nd])
	}
	if size < w.k {
		w.suppressed += size
		if w.limit >= 0 && w.suppressed > w.limit {
			w.aborted = true
		}
	} else {
		w.keptNCP += float64(size) * rowNCP
	}
}

// clearSlots zeroes the slots a merge touched.
func clearSlots(slots, touched []int32) {
	for _, g := range touched {
		slots[g] = 0
	}
}
