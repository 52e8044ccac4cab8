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
	"kanon/internal/relation"
	"kanon/internal/stream"
)

// BenchmarkRefine times the local search from a ball-greedy start: the
// small whole table, one stream block's worth of census rows, a block
// of 12 columns, one of them past 255 codes (16-bit lanes, three words
// per packed row), and a large whole table where the O(n²) swap scan
// dominates.
func BenchmarkRefine(b *testing.B) {
	for _, c := range []struct {
		name string
		n, m int
		wide bool
	}{
		{"n=150", 150, 6, false},
		{"block=256", 256, 8, false},
		{"block=256/wide", 256, 12, true},
		{"n=2000", 2000, 8, false},
	} {
		tab := benchTable(b, c.n, c.m)
		if c.wide {
			tab = wideColumn(b, tab, 300)
		}
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

// wideColumn re-interns t's rows under a schema whose first column
// already holds prior values, as a block of a large table inherits its
// parent's codes: that column's codes then start at prior.
func wideColumn(b *testing.B, t *relation.Table, prior int) *relation.Table {
	b.Helper()
	out := relation.NewTable(relation.NewSchema(t.Schema().Names()...))
	for v := 0; v < prior; v++ {
		out.Schema().Attribute(0).Intern("prior" + itoa(v))
	}
	for i := 0; i < t.Len(); i++ {
		if err := out.AppendStrings(t.Strings(i)...); err != nil {
			b.Fatal(err)
		}
	}
	return out
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

// BenchmarkLatticeSearch times hierarchy.Solve on three lattice
// shapes: the paper's all-suppress hierarchy (a 2^m lattice), a derived
// census spec with a 10-row budget, and a planted table whose lattice
// (390,625 nodes) is too large to enumerate under the default cap, so
// the beam answers it. The census and beam cases are the bench gate's
// hier_census and hier_planted shapes. The planted table is also solved
// exactly, with the cap raised to 2^19 and a 10-row budget: the price
// of letting exact search replace the beam there.
func BenchmarkLatticeSearch(b *testing.B) {
	census := dataset.Census(rand.New(rand.NewSource(3)), 2000, 6)
	planted := dataset.Planted(rand.New(rand.NewSource(3)), 1500, 8, 6, 3, 1)
	suppress := dataset.Census(rand.New(rand.NewSource(3)), 200, 6)
	for _, c := range []struct {
		name string
		tab  *relation.Table
		k    int
		opt  *hierarchy.Options
	}{
		{"suppress/n=200", suppress, 3, &hierarchy.Options{Spec: hierarchy.SuppressionSpec(suppress), MaxSuppress: 2}},
		{"census/n=2000", census, 4, &hierarchy.Options{MaxSuppress: 10, Workers: 1}},
		{"planted/n=1500", planted, 3, &hierarchy.Options{Workers: 1}},
		{"planted/n=1500/exact", planted, 3, &hierarchy.Options{MaxSuppress: 10, MaxNodes: 1 << 19, Workers: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hierarchy.Solve(c.tab, c.k, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
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
