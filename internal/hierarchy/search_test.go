package hierarchy

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// bruteForce finds the best cut by scoring every lattice node with the
// same count-tree walk the search uses — no tagging, no pruning, no
// binary search. The tagged search must return exactly this node.
func bruteForce(ct *CountTree, cols []*Column, k, maxSup int) *SearchResult {
	var best *SearchResult
	for _, levels := range allNodes(cols) {
		ok, sup, ncp := ct.Check(levels, k, maxSup, false)
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
// predictive-tagged search returns the brute-force minimum-NCP cut —
// i.e. tagging never prunes the optimum. Covers budgets and pre-starred
// cells.
func TestSearchMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		starProb := 0.0
		if seed%3 == 2 {
			starProb = 0.08
		}
		tab := randomTable(t, rng, 30+rng.Intn(50), 3, 4, starProb)
		cols, err := Compile(Derive(tab), tab)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ct := BuildCountTree(tab, cols)
		for _, maxSup := range []int{0, 2, 8} {
			k := 2 + rng.Intn(4)
			want := bruteForce(ct, cols, k, maxSup)
			got, err := Search(ct, k, maxSup, nil)
			if want == nil {
				if err == nil {
					t.Fatalf("seed %d k=%d sup=%d: brute force found no cut but Search returned %v", seed, k, maxSup, got.Levels)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d k=%d sup=%d: %v", seed, k, maxSup, err)
			}
			if !got.Exhaustive {
				t.Fatalf("seed %d: lattice should be exhaustively enumerable", seed)
			}
			if !reflect.DeepEqual(got.Levels, want.Levels) || got.NCP != want.NCP {
				t.Fatalf("seed %d k=%d sup=%d: search %v ncp=%g, brute force %v ncp=%g",
					seed, k, maxSup, got.Levels, got.NCP, want.Levels, want.NCP)
			}
			if got.Suppressed != want.Suppressed {
				t.Fatalf("seed %d: suppressed %d vs %d", seed, got.Suppressed, want.Suppressed)
			}
		}
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
