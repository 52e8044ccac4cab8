package cover

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kanon/internal/dataset"
	"kanon/internal/metric"
)

// TestBallsParallelDeterministic is the determinism property test: the
// sharded family builders must emit byte-identical output to the
// Workers: 1 sequential path across seeds, sizes, and k.
func TestBallsParallelDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, n := range []int{10, 37, 120} {
			for _, k := range []int{2, 3, 5} {
				rng := rand.New(rand.NewSource(seed))
				tab := dataset.Census(rng, n, 6)
				mat := metric.NewMatrix(tab)
				for _, w := range []BallWeight{WeightRadiusBound, WeightTrueDiameter} {
					seq, err := BallsCtx(context.Background(), mat, k, w, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{0, 2, 4, 7} {
						par, err := BallsCtx(context.Background(), mat, k, w, workers, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(seq, par) {
							t.Fatalf("seed=%d n=%d k=%d w=%v workers=%d: family differs from sequential", seed, n, k, w, workers)
						}
					}
				}
			}
		}
	}
}

func TestGreedyBallsParallelDeterministic(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		for _, n := range []int{25, 90} {
			for _, k := range []int{2, 4} {
				rng := rand.New(rand.NewSource(seed))
				tab := dataset.Census(rng, n, 6)
				mat := metric.NewMatrix(tab)
				seq, err := GreedyBallsCtx(context.Background(), mat, k, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 2, 6} {
					par, err := GreedyBallsCtx(context.Background(), mat, k, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(seq, par) {
						t.Fatalf("seed=%d n=%d k=%d workers=%d: cover differs from sequential", seed, n, k, workers)
					}
				}
			}
		}
	}
}

// TestNeighborOrderMatchesComparisonSort pits the counting-sort kernel
// against a direct comparison sort on random matrices, and exercises
// the large-range fallback by scaling the same metric past the bucket
// cutoff (scaling preserves the order, so the two must agree).
func TestNeighborOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(60)
		base := make([][]int, n)
		for i := range base {
			base[i] = make([]int, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := rng.Intn(9)
				base[i][j], base[j][i] = d, d
			}
		}
		small := funcMatrix(t, n, func(i, j int) int { return base[i][j] })
		// Scaling by a large constant forces the comparison-sort
		// fallback (bucket range ≫ 8n) without changing the order.
		big := funcMatrix(t, n, func(i, j int) int { return base[i][j] * 100000 })
		for c := 0; c < n; c++ {
			ref := make([]int32, n)
			for v := range ref {
				ref[v] = int32(v)
			}
			sort.Slice(ref, func(a, b int) bool {
				da, db := small.Dist(c, int(ref[a])), small.Dist(c, int(ref[b]))
				if da != db {
					return da < db
				}
				return ref[a] < ref[b]
			})
			for _, mat := range []*metric.Matrix{small, big} {
				s := getScratch(n)
				neighborOrder(mat, c, s)
				if !reflect.DeepEqual(s.ord, ref) {
					t.Fatalf("trial %d center %d (wide=%v): order %v, want %v", trial, c, mat.Wide(), s.ord, ref)
				}
				putScratch(s)
			}
		}
	}
}

// funcMatrix builds the matrix of an arbitrary metric on one worker.
func funcMatrix(t *testing.T, n int, dist func(i, j int) int) *metric.Matrix {
	t.Helper()
	mat, err := metric.NewMatrixFuncCtx(context.Background(), n, 1, dist)
	if err != nil {
		t.Fatal(err)
	}
	return mat
}

// TestBallsOnWideMetric checks the family builder end-to-end on a
// metric whose distances exceed int16 — the widened-storage path plus
// the counting-sort fallback together.
func TestBallsOnWideMetric(t *testing.T) {
	n := 30
	mat := funcMatrix(t, n, func(i, j int) int { return (j - i) * 50000 })
	if !mat.Wide() {
		t.Fatal("expected wide storage")
	}
	seq, err := BallsCtx(context.Background(), mat, 3, WeightRadiusBound, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BallsCtx(context.Background(), mat, 3, WeightRadiusBound, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("wide-metric family differs between sequential and parallel")
	}
	if len(seq) == 0 {
		t.Fatal("no balls emitted")
	}
}

// TestIncrementalDiameterMatchesRecompute verifies the O(n²)-per-center
// incremental diameter against a from-scratch Diameter recomputation on
// every emitted ball.
func TestIncrementalDiameterMatchesRecompute(t *testing.T) {
	for _, seed := range []int64{2, 9, 31} {
		rng := rand.New(rand.NewSource(seed))
		tab := dataset.Uniform(rng, 50, 5, 4)
		mat := metric.NewMatrix(tab)
		sets, err := BallsCtx(context.Background(), mat, 3, WeightTrueDiameter, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range sets {
			if want := mat.Diameter(s.Members); s.Weight != want {
				t.Fatalf("seed=%d set %d: incremental diameter %d, recomputed %d", seed, si, s.Weight, want)
			}
		}
	}
}
