package kanon

// Benchmarks for the extension subsystems built on top of the paper's
// algorithms: the local-search refiner, the bounded-memory streaming
// pipeline, the full-domain lattice, and the parallel distance matrix.

import (
	"math/rand"
	"testing"

	"kanon/internal/algo"
	"kanon/internal/dataset"
	"kanon/internal/hierarchy"
	"kanon/internal/metric"
	"kanon/internal/refine"
	"kanon/internal/stream"
)

func BenchmarkRefine(b *testing.B) {
	tab := benchTable(b, 150, 6)
	base, err := algo.GreedyBall(tab, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Refinement mutates the partition; clone per iteration.
		p := base.Partition
		groups := make([][]int, len(p.Groups))
		for gi, g := range p.Groups {
			groups[gi] = append([]int(nil), g...)
		}
		clone := *p
		clone.Groups = groups
		if _, err := refine.Partition(tab, &clone, 3, nil); err != nil {
			b.Fatal(err)
		}
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
