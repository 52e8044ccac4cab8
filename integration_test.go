package kanon

// Integration tests: cross-module invariants exercised through the
// public facade on larger fixed-seed corpora, plus consistency checks
// between independent implementations (exact DP vs branch-and-bound,
// suppression vs generalization with trivial hierarchies, algorithm
// outputs vs verifier).

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kanon/internal/algo"
	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/exact"
	"kanon/internal/generalize"
	"kanon/internal/hierarchy"
	"kanon/internal/quality"
	"kanon/internal/refine"
	"kanon/internal/relation"
)

// corpusTables builds the shared integration corpus.
func corpusTables(seed int64) map[string]*relation.Table {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*relation.Table{
		"census":  dataset.Census(rng, 80, 7),
		"zipf":    dataset.Zipf(rng, 70, 6, 8, 1.6),
		"planted": dataset.Planted(rng, 60, 6, 4, 3, 1),
		"uniform": dataset.Uniform(rng, 50, 5, 3),
	}
}

func toStrings(t *relation.Table) ([]string, [][]string) {
	header := t.Schema().Names()
	rows := make([][]string, t.Len())
	for i := range rows {
		rows[i] = t.Strings(i)
	}
	return header, rows
}

// TestIntegrationEveryAlgorithmOnEveryWorkload runs the full algorithm
// matrix through the facade and checks the universal invariants: valid
// k-anonymity, cost accounting, group structure, input immutability.
func TestIntegrationEveryAlgorithmOnEveryWorkload(t *testing.T) {
	for name, tab := range corpusTables(11) {
		header, rows := toStrings(tab)
		for _, alg := range []Algorithm{
			AlgoGreedyBall, AlgoPattern, AlgoKMember, AlgoMondrian, AlgoSorted, AlgoRandom,
		} {
			for _, k := range []int{2, 5} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", name, alg, k), func(t *testing.T) {
					res, err := Anonymize(header, rows, k, &Options{Algorithm: alg})
					if err != nil {
						t.Fatal(err)
					}
					ok, err := Verify(res.Header, res.Rows, k)
					if err != nil || !ok {
						t.Fatalf("not %d-anonymous (err=%v)", k, err)
					}
					if Cost(res.Rows) != res.Cost {
						t.Errorf("cost mismatch: %d vs %d", Cost(res.Rows), res.Cost)
					}
					covered := 0
					for _, g := range res.Groups {
						if len(g) < k {
							t.Errorf("group %v below k", g)
						}
						covered += len(g)
					}
					if covered != len(rows) {
						t.Errorf("groups cover %d of %d rows", covered, len(rows))
					}
				})
			}
		}
	}
}

// TestIntegrationExactConsistency: on DP-sized prefixes of each
// workload, the DP, branch-and-bound, and every approximation agree on
// the ordering exact ≤ approx, and the two exact solvers agree with
// each other.
func TestIntegrationExactConsistency(t *testing.T) {
	for name, tab := range corpusTables(13) {
		sub := tab.SubTable([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
		for _, k := range []int{2, 3} {
			dp, err := exact.SolveCtx(context.Background(), sub, k, exact.Stars, nil)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := exact.BranchBound(sub, k, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dp.Value != bb.Value {
				t.Errorf("%s k=%d: DP %d != B&B %d", name, k, dp.Value, bb.Value)
			}
			if lb := exact.LowerBoundNN(sub, k); lb > dp.Value {
				t.Errorf("%s k=%d: NN bound %d > OPT %d", name, k, lb, dp.Value)
			}
			header, rows := toStrings(sub)
			for _, alg := range []Algorithm{AlgoGreedyBall, AlgoGreedyExhaustive, AlgoPattern} {
				res, err := Anonymize(header, rows, k, &Options{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				if res.Cost < dp.Value {
					t.Errorf("%s/%s k=%d: approx %d below OPT %d", name, alg, k, res.Cost, dp.Value)
				}
			}
		}
	}
}

// TestIntegrationRefineChain: greedy → refine ≥ OPT and ≤ greedy, with
// quality metrics consistent at each step.
func TestIntegrationRefineChain(t *testing.T) {
	for name, tab := range corpusTables(17) {
		r, err := algo.GreedyBall(tab, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := r.Cost
		st, err := refine.Partition(tab, r.Partition, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.CostAfter > before {
			t.Errorf("%s: refine worsened %d → %d", name, before, st.CostAfter)
		}
		sup := r.Partition.Suppressor(tab)
		anon := sup.Apply(tab)
		rep, err := quality.Measure(anon, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stars != st.CostAfter {
			t.Errorf("%s: quality stars %d != refined cost %d", name, rep.Stars, st.CostAfter)
		}
		if rep.MinGroup < 3 {
			t.Errorf("%s: refined release min group %d", name, rep.MinGroup)
		}
	}
}

// TestIntegrationGeneralizeDegeneratesToSuppression: with two-level
// hierarchies, generalization over a fixed partition costs exactly the
// partition's star count, tying the two models together end to end.
func TestIntegrationGeneralizeDegeneratesToSuppression(t *testing.T) {
	tab := corpusTables(19)["uniform"]
	r, err := algo.GreedyBall(tab, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := hierarchy.Compile(hierarchy.SuppressionSpec(tab), tab)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generalize.Apply(tab, r.Partition, cols, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cost != r.Cost {
		t.Errorf("generalization cost %d != suppression cost %d", g.Cost, r.Cost)
	}
	for i, row := range g.Rows {
		anon := r.Anonymized.Strings(i)
		if strings.Join(row, "|") != strings.Join(anon, "|") {
			t.Errorf("row %d: generalize %v vs suppress %v", i, row, anon)
		}
	}
}

// TestIntegrationLatticeVsCellSuppression: the full-domain lattice
// release is always at least as costly (in stars) as the paper's
// cell-level suppression on the same table — the refinement the paper's
// model buys.
func TestIntegrationLatticeVsCellSuppression(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := dataset.Uniform(rng, 20, 4, 3)
	k := 2

	node, err := hierarchy.Solve(tab, k, &hierarchy.Options{Spec: hierarchy.SuppressionSpec(tab)})
	if err != nil {
		t.Fatal(err)
	}
	// With suppression-only hierarchies, a lattice node stars whole
	// columns: cost = n × (levels summed over starred columns).
	height := 0
	for _, l := range node.Levels {
		height += l
	}
	latticeStars := tab.Len() * height

	r, err := algo.GreedyBall(tab, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost > latticeStars {
		t.Errorf("cell suppression %d stars > full-domain %d stars", r.Cost, latticeStars)
	}

	// And the exact cell optimum is at most the best attribute-level
	// solution by definition.
	opt, err := exact.OPT(tab, k)
	if err != nil {
		t.Fatal(err)
	}
	if opt > latticeStars {
		t.Errorf("OPT %d > full-domain %d", opt, latticeStars)
	}
}

// TestIntegrationPartitionInterchange: partitions produced by any
// algorithm can be re-costed, refined, generalized, and suppressed
// interchangeably without invariant violations.
func TestIntegrationPartitionInterchange(t *testing.T) {
	tab := corpusTables(29)["census"]
	k := 4
	produce := map[string]func() (*core.Partition, error){
		"ball": func() (*core.Partition, error) {
			r, err := algo.GreedyBall(tab, k, nil)
			if err != nil {
				return nil, err
			}
			return r.Partition, nil
		},
		"ball-sorted-split": func() (*core.Partition, error) {
			r, err := algo.GreedyBall(tab, k, &algo.Options{SplitSorted: true})
			if err != nil {
				return nil, err
			}
			return r.Partition, nil
		},
	}
	for name, f := range produce {
		p, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(tab.Len(), k, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		costA := p.Cost(tab)
		sup := p.Suppressor(tab)
		if sup.Stars() != costA {
			t.Errorf("%s: suppressor stars %d != partition cost %d", name, sup.Stars(), costA)
		}
		if _, err := refine.Partition(tab, p, k, &refine.Options{MaxRounds: 2}); err != nil {
			t.Errorf("%s: refine: %v", name, err)
		}
		if p.Cost(tab) > costA {
			t.Errorf("%s: refine increased cost", name)
		}
	}
}
