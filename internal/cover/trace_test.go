package cover

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"kanon/internal/dataset"
	"kanon/internal/metric"
	"kanon/internal/obs"
)

// TestTraceDeterministicCover runs the full ball-greedy pipeline with a
// nil span and with a live one and requires identical chosen covers —
// the instrumentation must be invisible to the algorithm.
func TestTraceDeterministicCover(t *testing.T) {
	tab := dataset.Planted(rand.New(rand.NewSource(5)), 200, 6, 5, 3, 1)
	mat := metric.NewMatrix(tab)

	plain, err := GreedyBallsCtx(context.Background(), mat, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	root := tr.Start("test")
	traced, err := GreedyBallsCtx(context.Background(), mat, 3, 4, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("chosen cover changed under tracing")
	}

	snap := tr.Snapshot()
	if snap.Counters["cover.sets_picked"] != int64(len(traced)) {
		t.Errorf("cover.sets_picked = %d, want %d",
			snap.Counters["cover.sets_picked"], len(traced))
	}
	if snap.Counters["cover.greedy_rounds"] <= 0 || snap.Counters["cover.balls_considered"] <= 0 {
		t.Errorf("missing greedy counters: %v", snap.Counters)
	}

	// The explicit-family path must be just as oblivious.
	famPlain, err := BallsCtx(context.Background(), mat, 3, WeightRadiusBound, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := obs.New()
	root2 := tr2.Start("test")
	famTraced, err := BallsCtx(context.Background(), mat, 3, WeightRadiusBound, 4, root2)
	root2.End()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(famPlain, famTraced) {
		t.Error("ball family changed under tracing")
	}
	if got := tr2.Snapshot().Counters["cover.sets_generated"]; got != int64(len(famTraced)) {
		t.Errorf("cover.sets_generated = %d, want %d", got, len(famTraced))
	}
}
