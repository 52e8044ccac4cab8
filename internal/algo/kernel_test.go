package algo

import (
	"math/rand"
	"os"
	"runtime"
	"testing"

	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/metric"
	"kanon/internal/obs"
)

// TestKernelByteIdentity pins the algo layer's half of the cross-kernel
// contract: GreedyBall and GreedyExhaustive return identical results
// (rows, groups, cost, family stats) under every kernel choice.
func TestKernelByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := dataset.Planted(rng, 300, 8, 6, 3, 1)
	for _, k := range []int{2, 3} {
		want, err := GreedyBall(tab, k, &Options{Kernel: metric.Dense})
		if err != nil {
			t.Fatal(err)
		}
		for _, kern := range []metric.Choice{metric.Bitset, metric.Auto} {
			got, err := GreedyBall(tab, k, &Options{Kernel: kern})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost {
				t.Errorf("k=%d kernel=%v: cost %d, want %d", k, kern, got.Cost, want.Cost)
			}
			for i := 0; i < tab.Len(); i++ {
				if !got.Anonymized.Row(i).Equal(want.Anonymized.Row(i)) {
					t.Fatalf("k=%d kernel=%v: row %d differs", k, kern, i)
				}
			}
		}
	}
	small := dataset.Planted(rng, 40, 6, 4, 2, 1)
	want, err := GreedyExhaustive(small, 2, &Options{Kernel: metric.Dense})
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedyExhaustive(small, 2, &Options{Kernel: metric.Bitset})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Errorf("exhaustive: bitset cost %d, want %d", got.Cost, want.Cost)
	}
}

// TestGreedyBallAutoKernelRule pins GreedyBall's kernel rule: at
// metric.Auto the lazy cover builds the bitset kernel even below
// metric.AutoBitsetThreshold and releases the bytes Kernel: Dense
// does, while column weights and the materialized family (which look
// distances up pair by pair) still build the dense matrix there.
func TestGreedyBallAutoKernelRule(t *testing.T) {
	tab := dataset.Census(rand.New(rand.NewSource(12)), 200, 6)
	if tab.Len() >= metric.AutoBitsetThreshold {
		t.Fatalf("table of %d rows is not below the threshold", tab.Len())
	}
	run := func(opt Options) (*Result, map[string]int64) {
		t.Helper()
		tr := obs.New()
		root := tr.Start("run")
		opt.Trace = root
		res, err := GreedyBall(tab, 3, &opt)
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		return res, tr.Snapshot().Counters
	}
	want, _ := run(Options{Kernel: metric.Dense})
	got, counters := run(Options{})
	if counters["algo.kernel_bitset"] != 1 || counters["algo.kernel_dense"] != 0 {
		t.Errorf("lazy cover at Auto: kernel counters %v, want one bitset build", counters)
	}
	if got.Cost != want.Cost {
		t.Errorf("lazy cover at Auto: cost %d, Kernel: Dense %d", got.Cost, want.Cost)
	}
	for i := 0; i < tab.Len(); i++ {
		if !got.Anonymized.Row(i).Equal(want.Anonymized.Row(i)) {
			t.Fatalf("lazy cover at Auto: row %d differs from Kernel: Dense", i)
		}
	}
	for name, opt := range map[string]Options{
		"weights":             {Weights: core.Weights{2, 1, 1, 1, 1, 1}},
		"materialize":         {MaterializeBalls: true},
		"truediameterweights": {TrueDiameterWeights: true},
	} {
		if _, counters := run(opt); counters["algo.kernel_dense"] != 1 || counters["algo.kernel_bitset"] != 0 {
			t.Errorf("%s at Auto: kernel counters %v, want one dense build", name, counters)
		}
	}
}

// TestLazyBallPeakAlloc is the scale acceptance run: a matrix-free
// greedy ball pass at n=50000, m=8, k=3 must complete without ever
// materializing an n×n array. A dense int16 matrix alone would be
// n² · 2 = 5 GB; the assertion bounds the run's entire allocation well
// under that, so any accidental densification fails loudly. The run
// takes minutes of CPU, so it is opt-in: CI enables it via
// KANON_BIG_TESTS=1 (see .github/workflows/ci.yml); the tier-1 suite
// skips it.
func TestLazyBallPeakAlloc(t *testing.T) {
	if os.Getenv("KANON_BIG_TESTS") == "" {
		t.Skip("set KANON_BIG_TESTS=1 to run the n=50000 matrix-free scale test")
	}
	const n = 50_000
	rng := rand.New(rand.NewSource(20040614))
	tab := dataset.Planted(rng, n, 8, 6, 3, 1)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := GreedyBall(tab, 3, &Options{Kernel: metric.Bitset})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := int64(after.TotalAlloc - before.TotalAlloc)

	if !res.Anonymized.IsKAnonymous(3) {
		t.Fatal("output not 3-anonymous")
	}
	const denseBytes = int64(n) * int64(n) * 2
	const limit = denseBytes / 4 // 1.25 GB — far above the real footprint, far below n×n
	if alloc > limit {
		t.Errorf("matrix-free ball allocated %d bytes (limit %d; a dense matrix is %d)",
			alloc, limit, denseBytes)
	}
	t.Logf("n=%d matrix-free ball: cost %d, %d bytes allocated (dense matrix would be %d)",
		n, res.Cost, alloc, denseBytes)
}
