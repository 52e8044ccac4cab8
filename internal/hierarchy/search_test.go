package hierarchy

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kanon/internal/dataset"
	"kanon/internal/relation"
)

// bruteForce finds the best cut by scoring every lattice node with the
// same count-tree walk the search uses — no tagging, no bound, no
// descent. The search must return exactly this node.
func bruteForce(ct *CountTree, cols []*Column, k, maxSup int) *SearchResult {
	w := ct.newWalker()
	var best *SearchResult
	for _, levels := range allNodes(cols) {
		ok, sup, ncp := w.check(levels, k, maxSup, false)
		if !ok {
			continue
		}
		if best == nil || better(ncp, levels, best.NCP, best.Levels) {
			best = &SearchResult{Levels: levels, NCP: ncp, Suppressed: sup}
		}
	}
	return best
}

// TestSearchMatchesBruteForce: on exhaustively enumerable lattices the
// search returns the brute-force minimum-NCP cut — i.e. neither tagging
// nor the NCP bound ever prunes the optimum. Covers budgets, pre-starred
// cells, and census lattices of five and six columns (up to 4,800
// nodes), where the bound settles most nodes.
func TestSearchMatchesBruteForce(t *testing.T) {
	// Each table keeps the generator it was drawn from for its k values.
	type input struct {
		tab *relation.Table
		rng *rand.Rand
	}
	var inputs []input
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		starProb := 0.0
		if seed%3 == 2 {
			starProb = 0.08
		}
		inputs = append(inputs, input{randomTable(t, rng, 30+rng.Intn(50), 3, 4, starProb), rng})
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inputs = append(inputs, input{dataset.Census(rng, 40+10*int(seed), 5+int(seed%2)), rng})
	}
	pruned := 0
	for i, in := range inputs {
		tab, rng := in.tab, in.rng
		cols, err := Compile(Derive(tab), tab)
		if err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		ct := BuildCountTree(tab, cols)
		for _, maxSup := range []int{0, 2, 8} {
			k := 2 + rng.Intn(4)
			want := bruteForce(ct, cols, k, maxSup)
			got, err := Search(ct, k, maxSup, nil)
			if want == nil {
				if err == nil {
					t.Fatalf("table %d k=%d sup=%d: brute force found no cut but Search returned %v", i, k, maxSup, got.Levels)
				}
				continue
			}
			if err != nil {
				t.Fatalf("table %d k=%d sup=%d: %v", i, k, maxSup, err)
			}
			if !got.Exhaustive {
				t.Fatalf("table %d: lattice should be exhaustively enumerable", i)
			}
			if !reflect.DeepEqual(got.Levels, want.Levels) || got.NCP != want.NCP {
				t.Fatalf("table %d k=%d sup=%d: search %v ncp=%g, brute force %v ncp=%g",
					i, k, maxSup, got.Levels, got.NCP, want.Levels, want.NCP)
			}
			if got.Suppressed != want.Suppressed {
				t.Fatalf("table %d: suppressed %d vs %d", i, got.Suppressed, want.Suppressed)
			}
			pruned += got.Pruned
		}
	}
	if pruned == 0 {
		t.Fatal("the NCP bound pruned no node on any table")
	}
}

// TestSearchDeterministicAcrossWorkers: worker count must never change
// the chosen cut or the search telemetry (walks, tags, tag hits), for
// both engines. With several workers each one walks with its own
// reused walker, so under -race this is the walkers' concurrency test.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randomTable(t, rng, 80, 4, 5, 0.05)
	cols, err := Compile(Derive(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	for _, maxNodes := range []int{0 /* exhaustive */, 4 /* forces beam */} {
		var base *SearchResult
		for _, workers := range []int{1, 0, 2, 4, math.MaxInt} {
			got, err := Search(ct, 3, 2, &SearchOptions{Workers: workers, MaxNodes: maxNodes})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = got
				continue
			}
			if !reflect.DeepEqual(got.Levels, base.Levels) || got.NCP != base.NCP || got.Suppressed != base.Suppressed {
				t.Fatalf("maxNodes=%d: workers changed the cut: %v ncp=%g vs %v ncp=%g",
					maxNodes, got.Levels, got.NCP, base.Levels, base.NCP)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("maxNodes=%d workers=%d: result %+v, one worker %+v", maxNodes, workers, got, base)
			}
		}
	}
}

// TestSearchHugeWorkerCount: the worker count comes from callers
// unchecked (a CLI flag, a service query), so nothing may be sized by
// it up front. A batch uses at most one worker, and one walker, per
// node, and the result matches the one-worker search.
func TestSearchHugeWorkerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(t, rng, 60, 3, 4, 0)
	cols, err := Compile(Derive(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	for _, maxNodes := range []int{0 /* exhaustive */, 4 /* forces beam */} {
		want, err := Search(ct, 3, 2, &SearchOptions{Workers: 1, MaxNodes: maxNodes})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Search(ct, 3, 2, &SearchOptions{Workers: math.MaxInt, MaxNodes: maxNodes})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("maxNodes=%d: result %+v, one worker %+v", maxNodes, got, want)
		}
	}
}

// TestBeamFindsAnonymousCut: the greedy fallback must return a valid
// (if not optimal) k-anonymous cut, flagged non-exhaustive.
func TestBeamFindsAnonymousCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := randomTable(t, rng, 100, 4, 5, 0)
	cols, err := Compile(Derive(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	got, err := Search(ct, 4, 0, &SearchOptions{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Exhaustive {
		t.Fatal("MaxNodes=2 should force the beam")
	}
	sup, ncp := naiveNode(tab, cols, got.Levels, 4)
	if sup != 0 {
		t.Fatalf("beam cut %v suppresses %d rows with zero budget", got.Levels, sup)
	}
	if math.Abs(got.NCP-ncp) > 1e-9 {
		t.Fatalf("beam ncp %g, recount %g", got.NCP, ncp)
	}
}

// TestBudgetNeverHurts: enlarging the suppression budget can only
// lower (or keep) the optimal NCP.
func TestBudgetNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(t, rng, 60, 3, 5, 0)
	cols, err := Compile(Derive(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	prev := 2.0
	for _, maxSup := range []int{0, 2, 5, 10} {
		got, err := Search(ct, 4, maxSup, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.NCP > prev+1e-12 {
			t.Fatalf("budget %d raised optimal NCP: %g > %g", maxSup, got.NCP, prev)
		}
		prev = got.NCP
	}
}

// TestSearchNoCut: a table whose pre-starred rows split even the root
// node below k has no anonymous cut.
func TestSearchNoCut(t *testing.T) {
	tab := tableOf(t, []string{"c"}, [][]string{{"a"}, {"b"}, {"*"}})
	spec := &Spec{Columns: []ColumnSpec{{Name: "c", Kind: KindTree,
		Paths: map[string][]string{"a": {"any"}, "b": {"any"}}}}}
	cols, err := Compile(spec, tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	// At the root: {any, any, *} — the starred row is its own class of
	// size 1 < k=3, and the others form a class of 2 < 3.
	if _, err := Search(ct, 3, 0, nil); err != ErrNoCut {
		t.Fatalf("want ErrNoCut, got %v", err)
	}
	// A budget of 1 still fails (class of 2 remains); 3 suppresses all.
	if _, err := Search(ct, 3, 1, nil); err != ErrNoCut {
		t.Fatalf("budget 1: want ErrNoCut, got %v", err)
	}
	if got, err := Search(ct, 3, 3, nil); err != nil || got.Suppressed != 3 {
		t.Fatalf("budget 3: want all-suppressed cut, got %+v err=%v", got, err)
	}
}

// TestSearchCancellation: a pre-cancelled context aborts promptly.
func TestSearchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := randomTable(t, rng, 40, 3, 4, 0)
	cols, err := Compile(Derive(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ct, 3, 0, &SearchOptions{Ctx: ctx}); err == nil {
		t.Fatal("want cancellation error")
	}
}

// TestSearchPrunes sanity-checks the telemetry: on a lattice with a
// failing bottom region the tags must actually save walks.
func TestSearchPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := randomTable(t, rng, 120, 4, 6, 0)
	cols, err := Compile(Derive(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	got, err := Search(ct, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.LatticeNodes <= 0 {
		t.Fatalf("lattice nodes gauge = %d", got.LatticeNodes)
	}
	if got.Walked >= int(got.LatticeNodes) && got.TagsAnonymous+got.TagsFailing == 0 {
		t.Fatalf("search walked all %d nodes and tagged nothing", got.LatticeNodes)
	}
}

// TestSearchWalksFewNodes: on a census table of the benchmark's shape
// (n = 2000, m = 6, k = 4; 5,760 lattice nodes) the greedy descent's
// incumbent and the NCP bound leave the top-down sweep few nodes to
// walk. On this table the former bisection plus bottom-up sweep walked
// 2,100 nodes with no budget and 3,245 with a 10-row budget; this
// search walks 153 and 166.
func TestSearchWalksFewNodes(t *testing.T) {
	tab := dataset.Census(rand.New(rand.NewSource(3)), 2000, 6)
	cols, err := Compile(Derive(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	for _, budget := range []int{0, 10} {
		got, err := Search(ct, 4, budget, &SearchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Walked > 300 || got.Pruned == 0 {
			t.Fatalf("budget %d: walked %d of %d nodes, bound pruned %d", budget, got.Walked, got.LatticeNodes, got.Pruned)
		}
	}
}

// TestSearchLowerBound: at every node of small random lattices — tree,
// interval and suppress columns, pre-starred cells — the NCP bound
// never exceeds the NCP a walk reports, under budget 0 (anonymous
// nodes) and budget n (every node), and never falls from a node to its
// parent. The bound and the walk add the same penalties in different
// orders, so the first comparison allows 1e-12 of rounding, well inside
// the search's boundSlack; the second is exact. An empty tree's bound is
// 0.
func TestSearchLowerBound(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		starProb := 0.0
		if seed%2 == 1 {
			starProb = 0.1
		}
		tab := randomTable(t, rng, 10+rng.Intn(60), 2+rng.Intn(3), 3+rng.Intn(4), starProb)
		spec := Derive(tab)
		switch seed % 3 {
		case 1:
			spec = SuppressionSpec(tab)
		case 2:
			spec.Columns[0] = ColumnSpec{Name: spec.Columns[0].Name, Kind: KindSuppress}
		}
		cols, err := Compile(spec, tab)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ct := BuildCountTree(tab, cols)
		bound := newNCPBound(ct)
		w := ct.newWalker()
		n := tab.Len()
		for _, levels := range allNodes(cols) {
			lb := bound.at(levels)
			for _, k := range []int{1, 2, 4} {
				for _, budget := range []int{0, n} {
					if ok, _, ncp := w.check(levels, k, budget, false); ok && lb > ncp+1e-12 {
						t.Fatalf("seed %d node %v k=%d budget=%d: bound %v above NCP %v", seed, levels, k, budget, lb, ncp)
					}
				}
			}
			for j, c := range cols {
				if levels[j] == c.Height {
					continue
				}
				parent := slices.Clone(levels)
				parent[j]++
				if up := bound.at(parent); up < lb {
					t.Fatalf("seed %d: bound falls from %v (%v) to its parent %v (%v)", seed, levels, lb, parent, up)
				}
			}
		}
	}
	empty := tableOf(t, []string{"a", "b"}, nil)
	cols, err := Compile(SuppressionSpec(empty), empty)
	if err != nil {
		t.Fatal(err)
	}
	if lb := newNCPBound(BuildCountTree(empty, cols)).at([]int{1, 0}); lb != 0 {
		t.Fatalf("empty tree bound = %v, want 0", lb)
	}
}

// TestBeamKeysTallColumns: the beam keys a visited node by its levels.
// With one byte per level, a column 300 levels tall gave (l, x) and
// (l+256, x) the same key, so the frontier took unvisited parents for
// visited, died at level 255 and fell back to the root, [300 1] with b
// starred. The beam must reach the exhaustive answer, [300 0].
func TestBeamKeysTallColumns(t *testing.T) {
	const height = 300
	xs, ys := make([]string, height), make([]string, height)
	for l := 1; l < height; l++ {
		xs[l-1], ys[l-1] = fmt.Sprintf("x%d", l), fmt.Sprintf("y%d", l)
	}
	xs[height-1], ys[height-1] = relation.StarString, relation.StarString
	spec := &Spec{Columns: []ColumnSpec{
		{Name: "a", Kind: KindTree, Paths: map[string][]string{"x": xs, "y": ys}},
		{Name: "b", Kind: KindSuppress},
	}}
	tab := tableOf(t, []string{"a", "b"}, [][]string{{"x", "1"}, {"x", "1"}, {"y", "1"}, {"y", "1"}})
	cols, err := Compile(spec, tab)
	if err != nil {
		t.Fatal(err)
	}
	ct := BuildCountTree(tab, cols)
	want := []int{height, 0}
	exact, err := Search(ct, 4, 0, nil)
	if err != nil || !exact.Exhaustive || !reflect.DeepEqual(exact.Levels, want) {
		t.Fatalf("exhaustive search: %+v, %v; want levels %v", exact, err, want)
	}
	beam, err := Search(ct, 4, 0, &SearchOptions{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if beam.Exhaustive || !reflect.DeepEqual(beam.Levels, want) {
		t.Fatalf("beam: levels %v exhaustive=%v, want %v", beam.Levels, beam.Exhaustive, want)
	}
}
