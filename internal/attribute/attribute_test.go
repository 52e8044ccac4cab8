package attribute

import (
	"math/rand"
	"testing"

	"kanon/internal/baseline"
	"kanon/internal/dataset"
	"kanon/internal/relation"
)

func TestIsKAnonymousProjection(t *testing.T) {
	tab := relation.MustFromVectors([][]int{
		{1, 10}, {2, 10}, {1, 20}, {2, 20},
	})
	if IsKAnonymousProjection(tab, nil, 2) {
		t.Error("full projection should not be 2-anonymous (all rows distinct)")
	}
	if !IsKAnonymousProjection(tab, []int{0}, 2) {
		t.Error("dropping column 0 leaves pairs {10,10},{20,20}")
	}
	if !IsKAnonymousProjection(tab, []int{1}, 2) {
		t.Error("dropping column 1 leaves pairs {1,1},{2,2}")
	}
	if !IsKAnonymousProjection(tab, []int{0, 1}, 4) {
		t.Error("empty projection makes all rows identical")
	}
	if IsKAnonymousProjection(tab, []int{5}, 2) {
		t.Error("out-of-range drop column accepted")
	}
}

func TestExactMinimum(t *testing.T) {
	// Column 0 unique per row; column 1 pairs rows; column 2 constant.
	tab := relation.MustFromVectors([][]int{
		{1, 10, 7}, {2, 10, 7}, {3, 20, 7}, {4, 20, 7},
	})
	r, err := Exact(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Optimal || len(r.Dropped) != 1 || r.Dropped[0] != 0 {
		t.Errorf("Exact = %+v, want optimal drop of column 0", r)
	}
}

func TestExactZeroDrop(t *testing.T) {
	tab := relation.MustFromVectors([][]int{{1, 2}, {1, 2}, {1, 2}})
	r, err := Exact(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Dropped) != 0 {
		t.Errorf("Dropped = %v, want none", r.Dropped)
	}
}

func TestExactAllColumns(t *testing.T) {
	// Every column distinguishes all rows: must drop everything.
	tab := relation.MustFromVectors([][]int{
		{1, 5}, {2, 6}, {3, 7},
	})
	r, err := Exact(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Dropped) != 2 {
		t.Errorf("Dropped = %v, want both columns", r.Dropped)
	}
}

func TestExactErrors(t *testing.T) {
	tab := relation.MustFromVectors([][]int{{1}, {2}})
	if _, err := Exact(tab, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Exact(tab, 3); err == nil {
		t.Error("accepted n < k")
	}
	wide := dataset.Uniform(rand.New(rand.NewSource(1)), 4, MaxExactColumns+1, 2)
	if _, err := Exact(wide, 2); err == nil {
		t.Error("accepted m over the exact limit")
	}
}

// TestGreedyFeasibleAndNeverBelowExact bounds the attribute greedy,
// baseline.SuppressColumns, by Exact: the columns its release stars
// form a feasible attribute suppression, so there are never fewer of
// them than Exact drops.
func TestGreedyFeasibleAndNeverBelowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(10)
		m := 2 + rng.Intn(6)
		k := 2 + rng.Intn(2)
		tab := dataset.Uniform(rng, n, m, 2)
		ex, err := Exact(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := baseline.SuppressColumns(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		var starred []int
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				if gr.Anonymized.Row(i)[j] == relation.Star {
					starred = append(starred, j)
					break
				}
			}
		}
		if !IsKAnonymousProjection(tab, starred, k) {
			t.Fatalf("trial %d: greedy result infeasible", trial)
		}
		if !IsKAnonymousProjection(tab, ex.Dropped, k) {
			t.Fatalf("trial %d: exact result infeasible", trial)
		}
		if len(starred) < len(ex.Dropped) {
			t.Fatalf("trial %d: greedy %d beat exact %d", trial, len(starred), len(ex.Dropped))
		}
	}
}
