package hierarchy

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"kanon/internal/obs"
	"kanon/internal/par"
)

// Search limits and defaults.
const (
	// DefaultMaxNodes caps the lattice size the exhaustive engine will
	// enumerate; larger lattices fall back to the greedy beam.
	DefaultMaxNodes = 1 << 16
	// DefaultBeamWidth is the beam engine's frontier size.
	DefaultBeamWidth = 32
)

// SearchOptions tunes the lattice cut search.
type SearchOptions struct {
	// Workers bounds the goroutines used for count-tree walks, as
	// par.Workers resolves it: 0 or negative means all CPUs, counts are
	// clamped to GOMAXPROCS and to the nodes a batch walks, and 1 walks
	// sequentially. Parallelism never changes the result: walk results
	// are applied in a fixed node order.
	Workers int
	// MaxNodes caps exhaustive enumeration (0 = DefaultMaxNodes).
	MaxNodes int
	// BeamWidth sizes the greedy fallback frontier (0 = DefaultBeamWidth).
	BeamWidth int
	// Ctx cancels a long search between walks.
	Ctx context.Context
	// Trace receives search counters and the per-walk histogram.
	Trace *obs.Span
}

// SearchResult is the chosen lattice cut plus search telemetry.
type SearchResult struct {
	// Levels is the minimum-NCP k-anonymous generalization level per
	// column (ties broken by lexicographically smallest levels).
	Levels []int
	// NCP is the release's normalized certainty penalty in [0,1].
	NCP float64
	// Suppressed is how many rows the cut suppresses.
	Suppressed int
	// Exhaustive reports whether the full lattice was enumerated (true
	// means Levels is provably the minimum-NCP anonymous node).
	Exhaustive bool
	// LatticeNodes is the lattice's total size.
	LatticeNodes int64
	// Walked counts count-tree walks performed; TagsAnonymous and
	// TagsFailing count predictive tags applied; TagHits counts walks
	// avoided because a tag already decided the node; Pruned counts
	// nodes the NCP lower bound settled without a walk.
	Walked, TagsAnonymous, TagsFailing, TagHits, Pruned int
}

// ErrNoCut reports that no lattice node is k-anonymous within the
// suppression budget (possible only when the input already contains
// suppressed cells, so even the root node splits into small classes).
var ErrNoCut = fmt.Errorf("hierarchy: no k-anonymous generalization within the suppression budget")

// Search finds the minimum-NCP k-anonymous node of the generalization
// lattice over the count tree's columns. Lattices up to MaxNodes are
// solved exactly by branch and bound with OLA-style predictive tagging
// (anonymous nodes tag all their ancestors anonymous, failing nodes tag
// all their descendants failing). A greedy descent from the root to the
// best anonymous child, step by step, sets the first incumbent; then a
// top-down sweep, one batch per height, walks every node that is not
// yet walked, not tagged failing, and whose NCP lower bound (its cells'
// penalty with nothing suppressed) does not exceed the incumbent's NCP.
// Larger lattices use a deterministic greedy beam from the bottom of
// the lattice.
func Search(ct *CountTree, k, maxSup int, opts *SearchOptions) (*SearchResult, error) {
	if opts == nil {
		opts = &SearchOptions{}
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	e := &engine{
		ct:     ct,
		k:      k,
		maxSup: maxSup,
		ctx:    opts.Ctx,
		sp:     opts.Trace,
		walkNS: opts.Trace.Histogram("hierarchy.walk_ns"),
	}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	e.workers = opts.Workers
	m := len(ct.cols)
	e.dims = make([]int, m)
	total := int64(1)
	for j, c := range ct.cols {
		e.dims[j] = c.Height + 1
		if total <= int64(maxNodes) {
			total *= int64(e.dims[j])
		}
	}
	var res *SearchResult
	var err error
	if total <= int64(maxNodes) {
		res, err = e.exhaustive(int(total))
	} else {
		bw := opts.BeamWidth
		if bw <= 0 {
			bw = DefaultBeamWidth
		}
		res, err = e.beam(bw)
		// The beam can't size the lattice it skipped; report the
		// (possibly clamped) product for the gauge.
		total = -1
	}
	if err != nil {
		return nil, err
	}
	res.LatticeNodes = total
	res.Walked = e.walked
	res.TagsAnonymous = e.tagsAnon
	res.TagsFailing = e.tagsFail
	res.TagHits = e.tagHits
	res.Pruned = e.pruned
	return res, nil
}

// node statuses in the exhaustive engine.
const (
	stUnknown uint8 = iota
	stAnon          // known anonymous (walked or tagged)
	stFail          // known failing (walked or tagged)
)

// engine holds one search's shared state.
type engine struct {
	ct      *CountTree
	k       int
	maxSup  int
	workers int
	ctx     context.Context
	sp      *obs.Span
	walkNS  *obs.Histogram

	dims []int // levels per column (height+1)
	// walkers[w] and levels[w], the level vector its nodes are decoded
	// into, belong to pool worker w alone. walkAll grows both to the
	// workers a batch uses, so they never exceed the largest batch.
	walkers []*walker
	levels  [][]int

	// exhaustive-engine state, indexed by mixed-radix rank.
	status   []uint8
	walkedAt []bool
	// The tagging passes' reusable DFS stack and level vector.
	tagStack  []int
	tagLevels []int

	walked, tagsAnon, tagsFail, tagHits, pruned int
}

// levelsOf decodes a mixed-radix rank into per-column levels.
func (e *engine) levelsOf(rank int, out []int) []int {
	if out == nil {
		out = make([]int, len(e.dims))
	}
	for j := len(e.dims) - 1; j >= 0; j-- {
		out[j] = rank % e.dims[j]
		rank /= e.dims[j]
	}
	return out
}

// walkRes is one count-tree walk's outcome.
type walkRes struct {
	ok         bool
	suppressed int
	ncp        float64
}

// walkAll checks the lattice nodes levelsAt(0..n-1) on the par pool.
// levelsAt may fill the scratch vector it is given. Each worker walks
// with its own walker and level vector, kept for the whole search.
// Results are positionally aligned, so callers apply them in a
// deterministic order regardless of scheduling.
func (e *engine) walkAll(n int, full bool, levelsAt func(i int, scratch []int) []int) ([]walkRes, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, fmt.Errorf("hierarchy: search cancelled: %w", err)
	}
	res := make([]walkRes, n)
	e.walked += n
	workers := par.Workers(e.workers, n)
	for len(e.walkers) < workers {
		e.walkers = append(e.walkers, e.ct.newWalker())
		e.levels = append(e.levels, make([]int, len(e.dims)))
	}
	par.For(n, workers, func(w, i int) {
		if e.ctx.Err() != nil {
			return // drain the remaining nodes cheaply; checked below
		}
		t0 := time.Now()
		ok, sup, ncp := e.walkers[w].check(levelsAt(i, e.levels[w]), e.k, e.maxSup, full)
		e.walkNS.ObserveDuration(time.Since(t0))
		res[i] = walkRes{ok: ok, suppressed: sup, ncp: ncp}
	})
	if err := e.ctx.Err(); err != nil {
		return nil, fmt.Errorf("hierarchy: search cancelled: %w", err)
	}
	return res, nil
}

// walkRanks checks exhaustive-engine nodes by rank with pruned walks.
func (e *engine) walkRanks(ranks []int) ([]walkRes, error) {
	return e.walkAll(len(ranks), false, func(i int, scratch []int) []int {
		return e.levelsOf(ranks[i], scratch)
	})
}

// tagAnonAncestors marks every strict ancestor of rank anonymous,
// stopping a branch at nodes already known.
func (e *engine) tagAnonAncestors(rank int) {
	stack, levels := append(e.tagStack[:0], rank), e.tagLevels
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e.levelsOf(r, levels)
		stride := 1
		for j := len(e.dims) - 1; j >= 0; j-- {
			if levels[j]+1 < e.dims[j] {
				p := r + stride
				if e.status[p] == stUnknown {
					e.status[p] = stAnon
					e.tagsAnon++
					stack = append(stack, p)
				}
			}
			stride *= e.dims[j]
		}
	}
	e.tagStack = stack
}

// tagFailDescendants marks every strict descendant of rank failing.
func (e *engine) tagFailDescendants(rank int) {
	stack, levels := append(e.tagStack[:0], rank), e.tagLevels
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e.levelsOf(r, levels)
		stride := 1
		for j := len(e.dims) - 1; j >= 0; j-- {
			if levels[j] > 0 {
				c := r - stride
				if e.status[c] == stUnknown {
					e.status[c] = stFail
					e.tagsFail++
					stack = append(stack, c)
				}
			}
			stride *= e.dims[j]
		}
	}
	e.tagStack = stack
}

// applyWalk records one walked node's result and propagates tags.
func (e *engine) applyWalk(rank int, r walkRes) {
	e.walkedAt[rank] = true
	if r.ok {
		e.status[rank] = stAnon
		e.tagAnonAncestors(rank)
	} else {
		e.status[rank] = stFail
		e.tagFailDescendants(rank)
	}
}

// better reports whether (ncp, levels) beats the incumbent best.
func better(ncp float64, levels []int, bestNCP float64, bestLevels []int) bool {
	if bestLevels == nil {
		return true
	}
	if ncp != bestNCP {
		return ncp < bestNCP
	}
	for j := range levels {
		if levels[j] != bestLevels[j] {
			return levels[j] < bestLevels[j]
		}
	}
	return false
}

// boundSlack is how far a node's NCP lower bound must exceed the
// incumbent's NCP before the bound prunes the node. The bound and a
// walk add the same cell penalties in different orders, so an exact tie
// can differ by rounding; the slack keeps such a node walked, and
// better breaks the tie.
const boundSlack = 1e-9

// ncpBound is the exhaustive engine's lower bound on a node's NCP.
// sums[j][l] is column j's cell penalty at level l summed over every
// row, so at(L) = Σ_j sums[j][L_j] / (n·m) is node L's NCP with nothing
// suppressed. A walk charges a kept row exactly its cells and a
// suppressed row m, which is at least its cells because no cell
// penalty exceeds 1, so at(L) never exceeds L's NCP. No cell penalty
// falls as a level rises, so at never falls from a node to its parent.
type ncpBound struct {
	sums  [][]float64
	denom float64 // n·m; 0 for an empty tree, whose bound is 0
}

// newNCPBound sums each column's cell penalties over the count tree's
// depth-j codes, each weighted by the rows beneath it. Starred cells
// pay the root's penalty at every level, as the walk charges them.
func newNCPBound(ct *CountTree) *ncpBound {
	m := len(ct.codes)
	b := &ncpBound{sums: make([][]float64, m)}
	if ct.n == 0 || m == 0 {
		return b
	}
	b.denom = float64(ct.n) * float64(m)
	// rows[i] counts the table rows under the i-th trie node of the
	// current depth, folded up from the leaves' multiplicities.
	rows := ct.counts
	for d := m - 1; d >= 0; d-- {
		col, codes := ct.cols[d], ct.codes[d]
		b.sums[d] = make([]float64, col.Height+1)
		for l := range b.sums[d] {
			for i, c := range codes {
				b.sums[d][l] += float64(rows[i]) * col.NCP(l, col.Code(l, c))
			}
		}
		if d > 0 {
			span := ct.span[d-1]
			up := make([]int32, len(ct.codes[d-1]))
			for i := range up {
				for c := span[i]; c < span[i+1]; c++ {
					up[i] += rows[c]
				}
			}
			rows = up
		}
	}
	return b
}

// at is the bound at one lattice node.
func (b *ncpBound) at(levels []int) float64 {
	if b.denom == 0 {
		return 0
	}
	s := 0.0
	for j, l := range levels {
		s += b.sums[j][l]
	}
	return s / b.denom
}

// exhaustive finds the minimum-NCP anonymous node of the whole lattice
// by branch and bound: a greedy descent from the root sets the first
// incumbent, then a top-down sweep walks every node that no walk, tag
// or bound has settled.
func (e *engine) exhaustive(total int) (*SearchResult, error) {
	m := len(e.dims)
	e.status = make([]uint8, total)
	e.walkedAt = make([]bool, total)
	e.tagLevels = make([]int, m)
	bound := newNCPBound(e.ct)
	// stride[j] is the rank distance between a node and its child one
	// level lower in column j.
	stride := make([]int, m)
	hmax := 0
	for j, s := m-1, 1; j >= 0; j-- {
		stride[j] = s
		s *= e.dims[j]
		hmax += e.dims[j] - 1
	}
	// Bucket ranks by lattice height once; the sweep takes each height
	// in ascending rank order for determinism.
	heights := make([][]int, hmax+1)
	levels := make([]int, m)
	for r := 0; r < total; r++ {
		h := 0
		for _, l := range e.levelsOf(r, levels) {
			h += l
		}
		heights[h] = append(heights[h], r)
	}

	var bestLevels []int
	var bestNCP float64
	var bestSup int
	// walk checks one batch of ranks and applies the results in rank
	// order, so tags, the incumbent and the counters are the same for
	// every worker count. Every anonymous node walked is a candidate.
	walk := func(ranks []int) ([]walkRes, error) {
		rs, err := e.walkRanks(ranks)
		if err != nil {
			return nil, err
		}
		for i, r := range ranks {
			e.applyWalk(r, rs[i])
			if lv := e.levelsOf(r, levels); rs[i].ok && better(rs[i].ncp, lv, bestNCP, bestLevels) {
				bestLevels, bestNCP, bestSup = slices.Clone(lv), rs[i].ncp, rs[i].suppressed
			}
		}
		return rs, nil
	}

	// The root must be anonymous for any cut to exist (anonymity is
	// monotone up the lattice); bail out early when it isn't.
	top := total - 1
	if _, err := walk([]int{top}); err != nil {
		return nil, err
	}
	if e.status[top] != stAnon {
		return nil, ErrNoCut
	}

	// Descent: walk the current node's unwalked, non-failing children
	// as one batch and step to the anonymous child better ranks first,
	// until no child is anonymous. Children are listed in ascending
	// rank, which is lexicographic level order, so the first child of
	// least NCP is that one.
	sp := e.sp.Start("hierarchy.search.descent")
	var children []int
	for cur := top; cur >= 0; {
		e.levelsOf(cur, levels)
		children = children[:0]
		for j, l := range levels {
			if c := cur - stride[j]; l > 0 && !e.walkedAt[c] && e.status[c] != stFail {
				children = append(children, c)
			}
		}
		rs, err := walk(children)
		if err != nil {
			sp.End()
			return nil, err
		}
		cur = -1
		var curNCP float64
		for i, c := range children {
			if rs[i].ok && (cur < 0 || rs[i].ncp < curNCP) {
				cur, curNCP = c, rs[i].ncp
			}
		}
	}
	sp.End()

	// Sweep: from the top height down, walk each height's undecided
	// nodes as one batch. A node is settled without a walk only when it
	// is tagged failing (failing nodes tag their whole down-set) or its
	// lower bound exceeds the incumbent's NCP, so the result is the
	// (NCP, lex levels) minimum over all anonymous nodes, as scoring
	// every node gives. Tagged-anonymous nodes are left to the bound:
	// skipping them outright, as the bound nearly always does anyway,
	// could miss a node that float rounding ranks first in a tie.
	sp = e.sp.Start("hierarchy.search.sweep")
	defer sp.End()
	var batch []int
	for h := hmax; h >= 0; h-- {
		batch = batch[:0]
		for _, r := range heights[h] {
			switch {
			case e.walkedAt[r]:
			case e.status[r] == stFail:
				e.tagHits++
			case bound.at(e.levelsOf(r, levels)) > bestNCP+boundSlack:
				e.pruned++
			default:
				batch = append(batch, r)
			}
		}
		if _, err := walk(batch); err != nil {
			return nil, err
		}
	}
	return &SearchResult{Levels: bestLevels, NCP: bestNCP, Suppressed: bestSup, Exhaustive: true}, nil
}

// beamNode is one scored frontier entry in the greedy fallback.
type beamNode struct {
	levels []int
	res    walkRes
}

// beam greedily climbs the lattice with a bounded frontier, ranking
// nodes by (suppressed, ncp, lex levels). It is deterministic but not
// guaranteed optimal; Exhaustive=false in the result flags that.
func (e *engine) beam(width int) (*SearchResult, error) {
	m := len(e.dims)
	// Levels are varints: a tree column may be hundreds of levels tall,
	// so a fixed byte per level would give (l, x) and (l+256, x) the
	// same key, while a varint sequence is prefix-free and keeps levels
	// below 128 at one byte.
	key := func(levels []int) string {
		b := make([]byte, 0, m)
		for _, l := range levels {
			b = binary.AppendUvarint(b, uint64(l))
		}
		return string(b)
	}
	visited := map[string]bool{}
	var bestLevels []int
	var bestNCP float64
	var bestSup int

	// walkLevels scores a batch by levels directly — the exhaustive
	// rank encoding could overflow on the huge lattices the beam serves.
	walkLevels := func(batch [][]int) ([]walkRes, error) {
		return e.walkAll(len(batch), true, func(i int, _ []int) []int { return batch[i] })
	}

	bottom := make([]int, m)
	visited[key(bottom)] = true
	rs, err := walkLevels([][]int{bottom})
	if err != nil {
		return nil, err
	}
	frontier := []beamNode{{levels: bottom, res: rs[0]}}
	if rs[0].ok {
		bestLevels, bestNCP, bestSup = bottom, rs[0].ncp, rs[0].suppressed
	}

	for len(frontier) > 0 {
		// Expand: all unvisited parents of the frontier, in
		// deterministic lexicographic order.
		var parents [][]int
		for _, bn := range frontier {
			if bn.res.ok && (e.maxSup == 0 || bn.res.suppressed == 0) {
				// Anonymous with nothing suppressed: ancestors only cost
				// more NCP, stop expanding this branch.
				continue
			}
			for j := 0; j < m; j++ {
				if bn.levels[j]+1 >= e.dims[j] {
					continue
				}
				p := append([]int(nil), bn.levels...)
				p[j]++
				if kk := key(p); !visited[kk] {
					visited[kk] = true
					parents = append(parents, p)
				}
			}
		}
		if len(parents) == 0 {
			break
		}
		sort.Slice(parents, func(a, b int) bool {
			for j := 0; j < m; j++ {
				if parents[a][j] != parents[b][j] {
					return parents[a][j] < parents[b][j]
				}
			}
			return false
		})
		rs, err := walkLevels(parents)
		if err != nil {
			return nil, err
		}
		var nextFrontier []beamNode
		for i, p := range parents {
			if rs[i].ok && better(rs[i].ncp, p, bestNCP, bestLevels) {
				bestLevels, bestNCP, bestSup = p, rs[i].ncp, rs[i].suppressed
			}
			nextFrontier = append(nextFrontier, beamNode{levels: p, res: rs[i]})
		}
		// Keep the most promising `width` nodes: closest to anonymity
		// first, then least information loss.
		sort.SliceStable(nextFrontier, func(a, b int) bool {
			na, nb := nextFrontier[a], nextFrontier[b]
			if na.res.suppressed != nb.res.suppressed {
				return na.res.suppressed < nb.res.suppressed
			}
			if na.res.ncp != nb.res.ncp {
				return na.res.ncp < nb.res.ncp
			}
			for j := 0; j < m; j++ {
				if na.levels[j] != nb.levels[j] {
					return na.levels[j] < nb.levels[j]
				}
			}
			return false
		})
		if len(nextFrontier) > width {
			nextFrontier = nextFrontier[:width]
		}
		frontier = nextFrontier
	}

	if bestLevels == nil {
		// The beam can drop every path before reaching an anonymous
		// node; the lattice root is the universal fallback.
		top := make([]int, m)
		for j := range top {
			top[j] = e.dims[j] - 1
		}
		rs, err := walkLevels([][]int{top})
		if err != nil {
			return nil, err
		}
		if !rs[0].ok {
			return nil, ErrNoCut
		}
		bestLevels, bestNCP, bestSup = top, rs[0].ncp, rs[0].suppressed
	}
	return &SearchResult{Levels: bestLevels, NCP: bestNCP, Suppressed: bestSup, Exhaustive: false}, nil
}
