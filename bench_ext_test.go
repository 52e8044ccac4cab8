package kanon

// Benchmarks for the extension subsystems built on top of the paper's
// algorithms: the local-search refiner, the bounded-memory streaming
// pipeline, the full-domain lattice, and the parallel distance matrix.

import (
	"math/rand"
	"testing"

	"kanon/internal/algo"
	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/hierarchy"
	"kanon/internal/metric"
	"kanon/internal/refine"
	"kanon/internal/stream"
)

// BenchmarkRefine times the local search from a ball-greedy start: the
// small whole table, one stream block's worth of census rows, and a
// large whole table where the O(n²) swap scan dominates.
func BenchmarkRefine(b *testing.B) {
	for _, c := range []struct {
		name string
		n, m int
	}{
		{"n=150", 150, 6},
		{"block=256", 256, 8},
		{"n=2000", 2000, 8},
	} {
		tab := benchTable(b, c.n, c.m)
		base, err := algo.GreedyBall(tab, 3, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Refinement mutates the partition; clone per iteration.
				groups := make([][]int, len(base.Partition.Groups))
				for gi, g := range base.Partition.Groups {
					groups[gi] = append([]int(nil), g...)
				}
				if _, err := refine.Partition(tab, &core.Partition{Groups: groups}, 3, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStream(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		tab := dataset.Census(rand.New(rand.NewSource(2)), n, 8)
		b.Run("n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stream.Anonymize(tab, 5, &stream.Options{BlockRows: 1000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLatticeSearch(b *testing.B) {
	tab := dataset.Census(rand.New(rand.NewSource(3)), 200, 6)
	opt := &hierarchy.Options{Spec: hierarchy.SuppressionSpec(tab), MaxSuppress: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.Solve(tab, 3, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixParallel(b *testing.B) {
	for _, n := range []int{200, 1000, 3000} {
		tab := dataset.Census(rand.New(rand.NewSource(4)), n, 8)
		b.Run("n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metric.NewMatrix(tab)
			}
		})
	}
}
