package pattern

import (
	"context"
	"math/rand"
	"testing"

	"kanon/internal/dataset"
	"kanon/internal/exact"
	"kanon/internal/relation"
)

func TestAnonymizeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{2, 3} {
		tab := dataset.Uniform(rng, 20, 5, 2)
		r, err := AnonymizeCtx(context.Background(), tab, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Anonymized.IsKAnonymous(k) {
			t.Errorf("k=%d: output not k-anonymous", k)
		}
		if r.Anonymized.TotalStars() != r.Cost {
			t.Errorf("k=%d: cost %d != stars %d", k, r.Cost, r.Anonymized.TotalStars())
		}
		if r.FamilySize == 0 {
			t.Error("family size not recorded")
		}
	}
}

func TestAnonymizeDuplicateHeavy(t *testing.T) {
	// Duplicate-heavy data: the full-column pattern buckets have ≥ k
	// rows, so the solver pays nothing.
	tab := relation.MustFromVectors([][]int{
		{1, 2, 3}, {1, 2, 3}, {4, 5, 6}, {4, 5, 6}, {1, 2, 3},
	})
	r, err := AnonymizeCtx(context.Background(), tab, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 0 {
		t.Errorf("cost = %d, want 0", r.Cost)
	}
}

func TestAnonymizeErrors(t *testing.T) {
	tab := relation.MustFromVectors([][]int{{1}, {2}})
	if _, err := AnonymizeCtx(context.Background(), tab, 0, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := AnonymizeCtx(context.Background(), tab, 3, nil); err == nil {
		t.Error("accepted n < k")
	}
	wide := dataset.Uniform(rand.New(rand.NewSource(2)), 4, MaxColumns+1, 2)
	if _, err := AnonymizeCtx(context.Background(), wide, 2, nil); err == nil {
		t.Error("accepted m over limit")
	}
}

// TestNearOptimalOnSmallInstances: the pattern family contains every
// group of every optimal solution at exact cost, so greedy lands close
// to OPT; assert within the set-cover factor on a fixed corpus.
func TestNearOptimalOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(6)
		k := 2 + trial%2
		tab := dataset.Uniform(rng, n, 4, 2)
		opt, err := exact.OPT(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		r, err := AnonymizeCtx(context.Background(), tab, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost < opt {
			t.Fatalf("trial %d: pattern cost %d below OPT %d", trial, r.Cost, opt)
		}
		if ratio := exact.Ratio(r.Cost, opt); ratio > 3 {
			t.Errorf("trial %d: ratio %.2f unexpectedly poor (cost %d, OPT %d)", trial, ratio, r.Cost, opt)
		}
	}
}
