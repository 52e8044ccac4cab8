package kanon

// One benchmark per reproduction experiment (see DESIGN.md's experiment
// index and EXPERIMENTS.md for recorded results). Each BenchmarkEi
// exercises the code path of experiment Ei at a representative size, so
// `go test -bench=. -benchmem` regenerates the performance half of the
// study; cmd/kanon-bench regenerates the quality tables.

import (
	"context"
	"math/rand"
	"testing"

	"kanon/internal/algo"
	"kanon/internal/attribute"
	"kanon/internal/baseline"
	"kanon/internal/cover"
	"kanon/internal/dataset"
	"kanon/internal/exact"
	"kanon/internal/generalize"
	"kanon/internal/hypergraph"
	"kanon/internal/metric"
	"kanon/internal/pattern"
	"kanon/internal/reduction"
	"kanon/internal/relation"
)

// benchTable memoizes workload construction outside the timed loop.
func benchTable(b *testing.B, n, m int) *relation.Table {
	b.Helper()
	return dataset.Census(rand.New(rand.NewSource(1)), n, m)
}

// BenchmarkE1GreedyExhaustive times Theorem 4.1's algorithm at the
// exact-comparable scale of experiment E1.
func BenchmarkE1GreedyExhaustive(b *testing.B) {
	for _, k := range []int{2, 3} {
		tab := benchTable(b, 14, 8)
		b.Run("k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.GreedyExhaustive(tab, k, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2GreedyBall times Theorem 4.2's algorithm at E2 scale.
func BenchmarkE2GreedyBall(b *testing.B) {
	for _, k := range []int{2, 3} {
		tab := benchTable(b, 14, 8)
		b.Run("k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.GreedyBall(tab, k, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Scaling is the E3 runtime-scaling series: the ball greedy
// at growing n (the exhaustive side's wall is demonstrated by
// BenchmarkE1 at k=3 already; past n ≈ 40 it is infeasible).
func BenchmarkE3Scaling(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		tab := benchTable(b, n, 8)
		b.Run("ball/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.GreedyBall(tab, 3, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{20, 40} {
		tab := benchTable(b, n, 8)
		b.Run("exhaustive/k=2/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.GreedyExhaustive(tab, 2, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4Theorem31 times the full E4 pipeline: generate graph →
// reduce → exact OPT → extract witness.
func BenchmarkE4Theorem31(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := hypergraph.RandomWithPlantedMatching(rng, 9, 3, 8)
	inst, err := reduction.FromMatchingEntry(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exact.SolveCtx(context.Background(), inst.Table, 3, exact.Stars, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.Value <= inst.Threshold {
			if _, err := inst.MatchingFromPartition(r.Partition); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE5Theorem32 times the attribute-variant pipeline.
func BenchmarkE5Theorem32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := hypergraph.RandomWithPlantedMatching(rng, 9, 3, 8)
	inst, err := reduction.FromMatchingAttribute(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attribute.Exact(inst.Table, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Lemma41 times the double-exact (stars + diameter sum)
// solve that E6's sandwich check needs.
func BenchmarkE6Lemma41(b *testing.B) {
	tab := dataset.Uniform(rand.New(rand.NewSource(4)), 12, 6, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SolveCtx(context.Background(), tab, 3, exact.Stars, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := exact.SolveCtx(context.Background(), tab, 3, exact.DiameterSum, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7PaperExamples times the §1 hospital generalization under
// the paper's hierarchies and the §4 suppression example.
func BenchmarkE7PaperExamples(b *testing.B) {
	tab, spec := generalize.Hospital()
	example := relation.MustFromBitstrings("1010", "1110", "0110")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generalize.AnonymizeCtx(context.Background(), tab, 2, spec, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := algo.GreedyBall(example, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Baselines times every algorithm of the E8 comparison on
// one census workload.
func BenchmarkE8Baselines(b *testing.B) {
	tab := benchTable(b, 300, 8)
	const k = 5
	b.Run("ball", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.GreedyBall(tab, k, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kmember", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.KMember(tab, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mondrian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Mondrian(tab, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SortedChunks(tab, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pattern", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pattern.AnonymizeCtx(context.Background(), tab, k, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SuppressColumns(tab, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9DiameterProps times the geometric primitives the E9
// property checks exercise: matrix construction, balls, diameters.
func BenchmarkE9DiameterProps(b *testing.B) {
	tab := benchTable(b, 200, 8)
	b.Run("matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			metric.NewMatrix(tab)
		}
	})
	mat := metric.NewMatrix(tab)
	group := make([]int, 30)
	for i := range group {
		group[i] = i * 6
	}
	b.Run("diameter30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.Diameter(group)
		}
	})
	b.Run("ball", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.Ball(i%tab.Len(), 4)
		}
	})
}

// BenchmarkE10Ablations times the ablation's competing configurations.
func BenchmarkE10Ablations(b *testing.B) {
	tab := benchTable(b, 120, 6)
	const k = 3
	b.Run("split=arbitrary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.GreedyBall(tab, k, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("split=similarity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.GreedyBall(tab, k, &algo.Options{SplitSorted: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weights=truediameter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.GreedyBall(tab, k, &algo.Options{TrueDiameterWeights: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	mat := metric.NewMatrix(tab)
	sets, err := cover.BallsCtx(context.Background(), mat, k, cover.WeightRadiusBound, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy=lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cover.GreedyCtx(context.Background(), tab.Len(), sets, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy=naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cover.GreedyNaive(tab.Len(), sets); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI times the facade end to end, the number a
// downstream adopter cares about.
func BenchmarkPublicAPI(b *testing.B) {
	tab := benchTable(b, 200, 8)
	header := tab.Schema().Names()
	rows := make([][]string, tab.Len())
	for i := range rows {
		rows[i] = tab.Strings(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Anonymize(header, rows, 5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
