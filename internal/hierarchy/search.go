package hierarchy

import (
	"context"
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
	// avoided because a tag already decided the node.
	Walked, TagsAnonymous, TagsFailing, TagHits int
}

// ErrNoCut reports that no lattice node is k-anonymous within the
// suppression budget (possible only when the input already contains
// suppressed cells, so even the root node splits into small classes).
var ErrNoCut = fmt.Errorf("hierarchy: no k-anonymous generalization within the suppression budget")

// Search finds the minimum-NCP k-anonymous node of the generalization
// lattice over the count tree's columns. Lattices up to MaxNodes are
// enumerated exactly with OLA-style predictive tagging: a binary
// search on lattice height first brackets the lowest anonymous height
// (anonymous nodes tag all their ancestors anonymous, failing nodes
// tag all their descendants failing), then a bottom-up sweep over the
// remaining heights walks only untagged nodes. Larger lattices use a
// deterministic greedy beam from the bottom of the lattice.
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
	ncp      []float64
	supp     []int32
	// The tagging passes' reusable DFS stack and level vector.
	tagStack  []int
	tagLevels []int

	walked, tagsAnon, tagsFail, tagHits int
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

// rankOf encodes per-column levels into a rank.
func (e *engine) rankOf(levels []int) int {
	r := 0
	for j, l := range levels {
		r = r*e.dims[j] + l
	}
	return r
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
		e.ncp[rank] = r.ncp
		e.supp[rank] = int32(r.suppressed)
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

// exhaustive enumerates the whole lattice with predictive tagging.
func (e *engine) exhaustive(total int) (*SearchResult, error) {
	m := len(e.dims)
	e.status = make([]uint8, total)
	e.walkedAt = make([]bool, total)
	e.ncp = make([]float64, total)
	e.supp = make([]int32, total)
	e.tagLevels = make([]int, m)
	hmax := 0
	for _, d := range e.dims {
		hmax += d - 1
	}
	// Bucket ranks by lattice height once; sweep and binary search both
	// iterate heights in ascending rank order for determinism.
	heights := make([][]int, hmax+1)
	levels := make([]int, m)
	for r := 0; r < total; r++ {
		h := 0
		for _, l := range e.levelsOf(r, levels) {
			h += l
		}
		heights[h] = append(heights[h], r)
	}

	// The root must be anonymous for any cut to exist (anonymity is
	// monotone up the lattice); bail out early when it isn't.
	top := total - 1
	rs, err := e.walkRanks([]int{top})
	if err != nil {
		return nil, err
	}
	e.applyWalk(top, rs[0])
	if e.status[top] != stAnon {
		return nil, ErrNoCut
	}

	// Phase 1: binary search the lowest height that contains an
	// anonymous node. P(h) = "some node at height h is anonymous" is
	// monotone in h because every anonymous node tags its parents.
	sp := e.sp.Start("hierarchy.search.bracket")
	lo, hi := 0, hmax
	for lo < hi {
		mid := (lo + hi) / 2
		anyAnon := false
		var unknown []int
		for _, r := range heights[mid] {
			switch e.status[r] {
			case stAnon:
				anyAnon = true
				e.tagHits++
			case stFail:
				e.tagHits++
			default:
				unknown = append(unknown, r)
			}
			if anyAnon {
				break
			}
		}
		if !anyAnon {
			rs, err := e.walkRanks(unknown)
			if err != nil {
				sp.End()
				return nil, err
			}
			for i, r := range unknown {
				e.applyWalk(r, rs[i])
				if rs[i].ok {
					anyAnon = true
				}
			}
		}
		if anyAnon {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	sp.End()

	// Phase 2: sweep heights lo..hmax. With no suppression budget NCP
	// is monotone along chains, so tagged-anonymous nodes (which have
	// an anonymous child) can never beat a walked node and are pruned;
	// the sweep also stops at the first all-anonymous height. With a
	// budget, suppressed rows trade against generalization, so every
	// non-failing node is scored.
	sp = e.sp.Start("hierarchy.search.sweep")
	defer sp.End()
	var bestLevels []int
	var bestNCP float64
	var bestSup int
	scratch := make([]int, m)
	consider := func(r int, res walkRes) {
		lv := e.levelsOf(r, scratch)
		if better(res.ncp, lv, bestNCP, bestLevels) {
			bestLevels, bestNCP, bestSup = slices.Clone(lv), res.ncp, res.suppressed
		}
	}
	for h := lo; h <= hmax; h++ {
		allAnon := true
		var walk []int
		for _, r := range heights[h] {
			switch e.status[r] {
			case stFail:
				allAnon = false
				e.tagHits++
			case stAnon:
				if e.walkedAt[r] {
					consider(r, walkRes{ok: true, suppressed: int(e.supp[r]), ncp: e.ncp[r]})
				} else if e.maxSup > 0 {
					// Tagged anonymous: NCP unknown, and with a budget it
					// may undercut its descendants — score it.
					walk = append(walk, r)
				} else {
					e.tagHits++
				}
			default:
				walk = append(walk, r)
			}
		}
		rs, err := e.walkRanks(walk)
		if err != nil {
			return nil, err
		}
		for i, r := range walk {
			e.applyWalk(r, rs[i])
			if rs[i].ok {
				consider(r, rs[i])
			} else {
				allAnon = false
			}
		}
		if allAnon && e.maxSup == 0 {
			// Everything above this height generalizes an anonymous
			// node and can only cost more.
			break
		}
	}
	if bestLevels == nil {
		return nil, ErrNoCut
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
	key := func(levels []int) string {
		b := make([]byte, m)
		for j, l := range levels {
			b[j] = byte(l)
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
