package algo

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"testing"

	"kanon/internal/core"
	"kanon/internal/cover"
	"kanon/internal/dataset"
	"kanon/internal/exact"
	"kanon/internal/obs"
	"kanon/internal/relation"
	"kanon/internal/solver"
)

func TestGreedyBallWeightedReducesToUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := dataset.Census(rng, 40, 6)
	plain, err := GreedyBall(tab, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := GreedyBall(tab, 3, &Options{Weights: core.UniformWeights(6)})
	if err != nil {
		t.Fatal(err)
	}
	if uni.Cost != plain.Cost {
		t.Errorf("uniform-weight cost %d != plain %d", uni.Cost, plain.Cost)
	}
	if uni.WeightedCost != uni.Cost {
		t.Errorf("uniform weighted cost %d != star count %d", uni.WeightedCost, uni.Cost)
	}
	nilW, err := GreedyBall(tab, 3, &Options{Weights: nil})
	if err != nil {
		t.Fatal(err)
	}
	if nilW.Cost != plain.Cost {
		t.Errorf("nil-weight cost %d != plain %d", nilW.Cost, plain.Cost)
	}
}

func TestGreedyBallWeightedProtectsExpensiveColumn(t *testing.T) {
	// Two grouping choices: by column 0 (then column 1 is starred) or
	// by column 1 (then column 0 is starred). With a heavy weight on
	// column 0, the weighted greedy must keep column 0.
	tab := relation.MustFromVectors([][]int{
		{1, 7}, {1, 8}, {2, 7}, {2, 8},
	})
	w := core.Weights{100, 1}
	r, err := GreedyBall(tab, 2, &Options{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Anonymized.IsKAnonymous(2) {
		t.Fatal("output not 2-anonymous")
	}
	// The cheap release groups {0,1} and {2,3}, starring only column 1:
	// weighted cost 4·1 = 4.
	if r.WeightedCost != 4 {
		t.Errorf("weighted cost = %d, want 4 (column 0 preserved)", r.WeightedCost)
	}
	for i := 0; i < tab.Len(); i++ {
		if r.Anonymized.Row(i)[0] == relation.Star {
			t.Errorf("row %d starred the expensive column", i)
		}
	}
	// The unweighted greedy has no reason to prefer either column; the
	// exact weighted optimum confirms 4 is best possible.
	opt, err := exact.SolveWeightedCtx(context.Background(), tab, 2, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Value != 4 {
		t.Errorf("weighted OPT = %d, want 4", opt.Value)
	}
}

func TestGreedyBallWeightedNeverBelowWeightedOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		tab := dataset.Uniform(rng, 12, 5, 3)
		w := make(core.Weights, 5)
		for j := range w {
			w[j] = 1 + rng.Intn(9)
		}
		k := 2 + trial%2
		opt, err := exact.SolveWeightedCtx(context.Background(), tab, k, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := GreedyBall(tab, k, &Options{Weights: w})
		if err != nil {
			t.Fatal(err)
		}
		if r.WeightedCost < opt.Value {
			t.Fatalf("trial %d: greedy %d below weighted OPT %d", trial, r.WeightedCost, opt.Value)
		}
		got := 0
		for _, g := range r.Partition.Groups {
			got += core.AnonWeighted(tab, g, w)
		}
		if got != r.WeightedCost {
			t.Fatalf("trial %d: partition weighted cost %d != reported %d", trial, got, r.WeightedCost)
		}
	}
}

func TestGreedyBallWeightedValidation(t *testing.T) {
	tab := dataset.Uniform(rand.New(rand.NewSource(3)), 6, 3, 2)
	if _, err := GreedyBall(tab, 2, &Options{Weights: core.Weights{1, 2}}); err == nil {
		t.Error("accepted wrong-length weights")
	}
	if _, err := GreedyBall(tab, 2, &Options{Weights: core.Weights{1, -1, 2}}); err == nil {
		t.Error("accepted negative weight")
	}
	if _, err := GreedyBall(tab, 0, &Options{Weights: nil}); err == nil {
		t.Error("accepted k=0")
	}
}

func TestSolveWeightedReducesToSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		tab := dataset.Uniform(rng, 9, 4, 2)
		a, err := exact.SolveCtx(context.Background(), tab, 2, exact.Stars, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := exact.SolveWeightedCtx(context.Background(), tab, 2, core.UniformWeights(4), nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Value != b.Value {
			t.Fatalf("trial %d: unweighted %d != uniform-weighted %d", trial, a.Value, b.Value)
		}
	}
}

// TestWeightedRunObservedLikeUnweighted: a weighted ball run goes
// through the same kernel phase as an unweighted one, so under a
// narrated span weights whose distances exceed int16 log the
// matrix_widened anomaly, the matrix and cover spans' ends, and count
// the dense kernel.
func TestWeightedRunObservedLikeUnweighted(t *testing.T) {
	tab := dataset.Census(rand.New(rand.NewSource(11)), 60, 6)
	var buf bytes.Buffer
	tr := obs.New()
	root := tr.Start("run")
	root.Narrate(obs.NewEvents(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})), "weighted"))
	info, ok := solver.Lookup("ball")
	if !ok {
		t.Fatal("ball solver not registered")
	}
	_, err := info.Run(solver.Request{
		Table:   tab,
		K:       3,
		Weights: core.Weights{40000, 1, 1, 1, 20000, 1},
		Trace:   root,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	seen := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec struct{ Msg, Phase, Kind string }
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		seen[rec.Msg+" "+rec.Phase+rec.Kind] = true
	}
	for _, want := range []string{
		"phase_done algo.distance-matrix", "phase_done algo.cover",
		"anomaly matrix_widened",
	} {
		if !seen[want] {
			t.Errorf("missing event %q; got %v", want, seen)
		}
	}
	if got := tr.Snapshot().Counters["algo.kernel_dense"]; got != 1 {
		t.Errorf("algo.kernel_dense = %d, want 1", got)
	}
}

// TestWeightedTrueDiameterWeights: column weights with
// TrueDiameterWeights materialize the ball family over the weighted
// metric and weight each ball by its exact weighted diameter, through
// the registry as well as directly.
func TestWeightedTrueDiameterWeights(t *testing.T) {
	tab := dataset.Census(rand.New(rand.NewSource(1)), 40, 6)
	w := core.Weights{5, 1, 1, 3, 1, 2}
	mat, err := core.WeightedMatrixCtx(context.Background(), tab, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	family, err := cover.BallsCtx(context.Background(), mat, 3, cover.WeightTrueDiameter, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range family {
		if d := mat.Diameter(s.Members); s.Weight != d {
			t.Fatalf("ball %v weighted %d, exact weighted diameter %d", s.Members, s.Weight, d)
		}
	}
	chosen, err := cover.GreedyCtx(context.Background(), tab.Len(), family, nil)
	if err != nil {
		t.Fatal(err)
	}

	r, err := GreedyBall(tab, 3, &Options{Weights: w, TrueDiameterWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.FamilySize != len(family) || r.Stats.CoverWeight != cover.WeightSum(chosen) {
		t.Fatalf("family %d sets, cover weight %d; want %d, %d",
			r.Stats.FamilySize, r.Stats.CoverWeight, len(family), cover.WeightSum(chosen))
	}
	bound, err := GreedyBall(tab, 3, &Options{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	r.Partition.Normalize()
	bound.Partition.Normalize()
	if fmt.Sprint(r.Partition.Groups) == fmt.Sprint(bound.Partition.Groups) {
		t.Fatal("exact-diameter and radius-bound weights chose the same partition; the instance does not tell them apart")
	}

	info, _ := solver.Lookup("ball")
	sr, err := info.Run(solver.Request{Table: tab, K: 3, Weights: w, TrueDiameterWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	sr.Partition.Normalize()
	if got, want := fmt.Sprint(sr.Partition.Groups), fmt.Sprint(r.Partition.Groups); got != want {
		t.Errorf("registry partition %s, want the exact-diameter partition %s", got, want)
	}
}
