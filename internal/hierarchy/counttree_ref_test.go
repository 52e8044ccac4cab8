package hierarchy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"kanon/internal/dataset"
)

// checkRef is the former CountTree.Check, kept verbatim as the
// reference for the reusable walker: a fresh walkState per call and a
// reflective stable sort to merge siblings.
func checkRef(ct *CountTree, levels []int, k, maxSup int, full bool) (ok bool, suppressed int, ncp float64) {
	if ct.n == 0 || len(ct.codes) == 0 {
		return true, 0, 0
	}
	w := walkState{ct: ct, levels: levels, k: k, limit: maxSup}
	if full {
		w.limit = ct.n
	}
	// The depth-0 sibling set is the whole first layer.
	all := make([]int32, len(ct.codes[0]))
	for i := range all {
		all[i] = int32(i)
	}
	w.walk(all, 0, 0)
	if w.aborted {
		return false, w.suppressed, 0
	}
	m := len(ct.cols)
	ncp = (w.keptNCP + float64(w.suppressed)*float64(m)) / (float64(ct.n) * float64(m))
	return w.suppressed <= maxSup, w.suppressed, ncp
}

// walkState accumulates one checkRef traversal.
type walkState struct {
	ct         *CountTree
	levels     []int
	k, limit   int
	suppressed int
	keptNCP    float64
	aborted    bool
	// scratch buffers reused across recursion levels to keep the walk
	// allocation-light.
	pairs [][]pair
}

// pair tags a trie node index with its generalized code for sorting.
type pair struct {
	gen  int32
	node int32
}

// walk merges the sibling set `nodes` (trie indices at `depth`) by
// generalized code, in deterministic ascending-code order, and
// recurses into the concatenated child ranges of each merged group.
func (w *walkState) walk(nodes []int32, depth int, pathNCP float64) {
	if w.aborted {
		return
	}
	col := w.ct.cols[depth]
	level := w.levels[depth]
	for len(w.pairs) <= depth {
		w.pairs = append(w.pairs, nil)
	}
	ps := w.pairs[depth][:0]
	for _, nd := range nodes {
		ps = append(ps, pair{gen: col.Code(level, w.ct.codes[depth][nd]), node: nd})
	}
	// Trie nodes are in base-code order; a stable sort by generalized
	// code keeps the merge deterministic.
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].gen < ps[b].gen })
	w.pairs[depth] = ps
	last := len(w.ct.cols) - 1
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].gen == ps[i].gen {
			j++
		}
		cell := col.NCP(level, ps[i].gen)
		if depth == last {
			size := 0
			for _, p := range ps[i:j] {
				size += int(w.ct.counts[p.node])
			}
			if size < w.k {
				w.suppressed += size
				if w.limit >= 0 && w.suppressed > w.limit {
					w.aborted = true
					return
				}
			} else {
				w.keptNCP += float64(size) * (pathNCP + cell)
			}
		} else {
			// Gather the merged group's children. The slice must be
			// fresh per group because recursion reuses w.pairs[depth+1].
			var children []int32
			for _, p := range ps[i:j] {
				lo, hi := w.ct.span[depth][p.node], w.ct.span[depth][p.node+1]
				for c := lo; c < hi; c++ {
					children = append(children, c)
				}
			}
			w.walk(children, depth+1, pathNCP+cell)
			if w.aborted {
				return
			}
		}
		i = j
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestWalkMatchesReference pins the counting merge to the former
// stable-sort walk bit for bit: on random tables, at every lattice
// node, k, budget and walk mode, one reused walker per table must
// return the reference's verdict, suppression count and NCP float
// bits. Reusing the walker across pruned and full checks is what
// exposes a count slot left dirty by an aborted walk.
func TestWalkMatchesReference(t *testing.T) {
	// Each table runs on one goroutine, so the race detector has
	// nothing to find here; under -race, where a check costs about ten
	// times as much, every tenth table stands for the rest.
	stride := int64(1)
	if raceEnabled {
		stride = 10
	}
	for seed := int64(0); seed < 40; seed += stride {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Ten tables of each degree 2–5; the rest is drawn.
			rng := rand.New(rand.NewSource(seed))
			n, m, alphabet := 20+rng.Intn(301), 2+int(seed%4), 3+rng.Intn(10)
			starProb := 0.0
			if seed%3 == 2 {
				starProb = 0.08
			}
			tab := randomTable(t, rng, n, m, alphabet, starProb)
			cols, err := Compile(Derive(tab), tab)
			if err != nil {
				t.Fatal(err)
			}
			ct := BuildCountTree(tab, cols)
			w := ct.newWalker()
			for _, levels := range allNodes(cols) {
				for _, k := range []int{1, 2, 4} {
					for _, budget := range []int{0, 3, n} {
						for _, full := range []bool{false, true} {
							wantOK, wantSup, wantNCP := checkRef(ct, levels, k, budget, full)
							ok, sup, ncp := w.check(levels, k, budget, full)
							if ok != wantOK || sup != wantSup || math.Float64bits(ncp) != math.Float64bits(wantNCP) {
								t.Fatalf("node %v k=%d budget=%d full=%v: walker (%v, %d, %v), reference (%v, %d, %v)",
									levels, k, budget, full, ok, sup, ncp, wantOK, wantSup, wantNCP)
							}
						}
					}
				}
			}
		})
	}
}

// TestWalkAllocatesNothing: once a walker exists, neither a pruned nor
// a full check allocates — the merge loop reuses the walker's buffers.
func TestWalkAllocatesNothing(t *testing.T) {
	tab := dataset.Census(rand.New(rand.NewSource(3)), 2000, 6)
	cols, err := Compile(Derive(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	levels := make([]int, len(cols))
	for j, c := range cols {
		levels[j] = c.Height / 2
	}
	w := ct.newWalker()
	for _, full := range []bool{false, true} {
		w.check(levels, 4, 10, full) // warm up
		if a := testing.AllocsPerRun(20, func() { w.check(levels, 4, 10, full) }); a != 0 {
			t.Fatalf("full=%v: %v allocations per check, want 0", full, a)
		}
	}
}
