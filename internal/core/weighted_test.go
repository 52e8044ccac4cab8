package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"kanon/internal/metric"
	"kanon/internal/relation"
)

func TestWeightsValidate(t *testing.T) {
	if err := Weights(nil).Validate(5); err != nil {
		t.Errorf("nil weights rejected: %v", err)
	}
	if err := (Weights{1, 2, 3}).Validate(3); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
	if err := (Weights{1, 2}).Validate(3); err == nil {
		t.Error("short weights accepted")
	}
	if err := (Weights{1, -2, 3}).Validate(3); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestUniformWeights(t *testing.T) {
	w := UniformWeights(4)
	if len(w) != 4 {
		t.Fatalf("len = %d", len(w))
	}
	for j, x := range w {
		if x != 1 {
			t.Errorf("w[%d] = %d", j, x)
		}
	}
}

func TestAnonWeightedKnown(t *testing.T) {
	tab := relation.MustFromBitstrings("1010", "1110", "0110")
	g := []int{0, 1, 2}
	// Non-uniform columns: 0 and 1.
	w := Weights{10, 1, 100, 100}
	if got := AnonWeighted(tab, g, w); got != 3*(10+1) {
		t.Errorf("AnonWeighted = %d, want 33", got)
	}
	if got := AnonWeighted(tab, g, nil); got != Anon(tab, g) {
		t.Errorf("nil weights: %d != unweighted %d", got, Anon(tab, g))
	}
	if got := AnonWeighted(tab, []int{1}, w); got != 0 {
		t.Errorf("singleton = %d", got)
	}
}

// TestAnonWeightedReducesToUnweighted: all-ones weights reproduce the
// paper's objective everywhere.
func TestAnonWeightedReducesToUnweighted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(6)
		vecs := make([][]int, n)
		for i := range vecs {
			v := make([]int, m)
			for j := range v {
				v[j] = rng.Intn(3)
			}
			vecs[i] = v
		}
		tab := relation.MustFromVectors(vecs)
		g := rng.Perm(n)[:1+rng.Intn(n)]
		return AnonWeighted(tab, g, UniformWeights(m)) == Anon(tab, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCostWeightedAndWeightedStars(t *testing.T) {
	tab := relation.MustFromBitstrings("00", "01", "10", "11")
	p := Partition{Groups: [][]int{{0, 1}, {2, 3}}}
	w := Weights{5, 1}
	// Each group: column 1 non-uniform (weight 1) × 2 rows = 2; total 4.
	total := 0
	for _, g := range p.Groups {
		total += AnonWeighted(tab, g, w)
	}
	if total != 4 {
		t.Errorf("Σ AnonWeighted = %d, want 4", total)
	}
	sup := p.Suppressor(tab)
	if got := sup.WeightedStars(w); got != 4 {
		t.Errorf("WeightedStars = %d, want 4", got)
	}
	if got := sup.WeightedStars(nil); got != sup.Stars() {
		t.Errorf("nil-weight stars %d != %d", got, sup.Stars())
	}
}

func TestWeightedMatrix(t *testing.T) {
	tab := relation.MustFromBitstrings("00", "01", "11")
	w := Weights{7, 3}
	mat := weightedMatrix(t, tab, w)
	if got := mat.Dist(0, 1); got != 3 {
		t.Errorf("d_w(00,01) = %d, want 3", got)
	}
	if got := mat.Dist(0, 2); got != 10 {
		t.Errorf("d_w(00,11) = %d, want 10", got)
	}
	// nil weights fall back to the plain matrix.
	plain := weightedMatrix(t, tab, nil)
	if got := plain.Dist(0, 2); got != metric.Distance(tab.Row(0), tab.Row(2)) {
		t.Errorf("nil-weight matrix wrong: %d", got)
	}
}

// weightedMatrix is WeightedMatrixCtx on one worker.
func weightedMatrix(t *testing.T, tab *relation.Table, w Weights) *metric.Matrix {
	t.Helper()
	mat, err := WeightedMatrixCtx(context.Background(), tab, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mat
}

// TestWeightedDistanceIsMetric: d_w keeps the triangle inequality.
func TestWeightedDistanceIsMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(6)
		w := make(Weights, m)
		for j := range w {
			w[j] = rng.Intn(9)
		}
		vecs := make([][]int, 3)
		for i := range vecs {
			v := make([]int, m)
			for j := range v {
				v[j] = rng.Intn(3)
			}
			vecs[i] = v
		}
		tab := relation.MustFromVectors(vecs)
		mat := weightedMatrix(t, tab, w)
		return mat.Dist(0, 2) <= mat.Dist(0, 1)+mat.Dist(1, 2) &&
			mat.Dist(0, 1) == mat.Dist(1, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
