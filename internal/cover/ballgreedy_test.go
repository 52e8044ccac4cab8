package cover

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"kanon/internal/dataset"
	"kanon/internal/metric"
	"kanon/internal/relation"
)

// TestGreedyBallsAllocs pins the cover's allocations to a small
// multiple of the sets it picks: one slice per picked ball plus a
// bounded number of buffers, and no boxed heap entries. The former
// implementation made about 9,000 allocations on this table.
func TestGreedyBallsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, nothing to race; the plain run pins the count")
	}
	tab := dataset.Census(rand.New(rand.NewSource(3)), 1500, 8)
	for name, kern := range map[string]metric.Kernel{"bitset": bitKernel(t, tab), "dense": metric.NewMatrix(tab)} {
		var sets []Set
		allocs := testing.AllocsPerRun(2, func() {
			var err error
			if sets, err = GreedyBallsCtx(context.Background(), kern, 3, 1, nil); err != nil {
				t.Fatal(err)
			}
		})
		if limit := 3 * float64(len(sets)); allocs > limit {
			t.Errorf("%s: %.0f allocations for %d sets, want at most %.0f", name, allocs, len(sets), limit)
		}
		t.Logf("%s: %.0f allocations for %d sets", name, allocs, len(sets))
	}
}

// pollCtx is a context whose Err reports context.Canceled from its
// n-th call on, so a test can cancel at any chosen poll without timing.
type pollCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// twoGroupTable returns n rows in two halves that agree on their first
// four columns within a half and differ there across halves, with two
// free columns. Its first big ball covers one half, so the update that
// follows is large enough to be sharded across workers.
func twoGroupTable(rng *rand.Rand, n int) *relation.Table {
	vecs := make([][]int, n)
	for i := range vecs {
		g := i % 2
		vecs[i] = []int{g, g, g, g, rng.Intn(50), rng.Intn(50)}
	}
	return relation.MustFromVectors(vecs)
}

// TestGreedyBallsCancelAtEveryPoll cancels a small cover at each of
// its context polls in turn: the count build, every selection
// round and every per-pick update must stop there and return an error
// wrapping context.Canceled and no cover. One poll later than the last
// lets the cover finish, identical to an uncancelled run.
func TestGreedyBallsCancelAtEveryPoll(t *testing.T) {
	cases := []struct {
		name    string
		mat     metric.Kernel
		k       int
		workers int
	}{
		{"census/sequential", metric.NewMatrix(dataset.Census(rand.New(rand.NewSource(8)), 40, 4)), 2, 1},
		{"two-groups/sharded", bitKernel(t, twoGroupTable(rand.New(rand.NewSource(9)), 200)), 3, 2},
		{"two-groups/tile-pairs", bitKernel(t, twoGroupTable(rand.New(rand.NewSource(10)), 600)), 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := GreedyBallsCtx(context.Background(), tc.mat, tc.k, tc.workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			count := &pollCtx{Context: context.Background(), n: 1 << 62}
			if _, err := GreedyBallsCtx(count, tc.mat, tc.k, tc.workers, nil); err != nil {
				t.Fatal(err)
			}
			polls := count.calls.Load()
			if polls <= int64(tc.mat.Len()) {
				t.Fatalf("only %d polls for %d rows", polls, tc.mat.Len())
			}
			stride := int64(1)
			if raceEnabled {
				stride = 7 // the race build cancels at every seventh poll
			}
			for n := int64(1); n <= polls; n += stride {
				got, err := GreedyBallsCtx(&pollCtx{Context: context.Background(), n: n}, tc.mat, tc.k, tc.workers, nil)
				if !errors.Is(err, context.Canceled) || got != nil {
					t.Fatalf("cancelled at poll %d of %d: got %d sets, err %v", n, polls, len(got), err)
				}
			}
			got, err := GreedyBallsCtx(&pollCtx{Context: context.Background(), n: polls + 1}, tc.mat, tc.k, tc.workers, nil)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("cancelling after the last of %d polls changed the run: err %v", polls, err)
			}
			t.Logf("%d polls, each one cancels", polls)
		})
	}
}

// TestGreedyBallsHugeWorkerCount passes a worker count nothing caps, as
// a caller's -workers flag or workers= query can: the cover must give
// the one-worker answer without keeping a distance row per requested
// worker (2,000 rows of 2,000 distances would be 16 MB here).
func TestGreedyBallsHugeWorkerCount(t *testing.T) {
	tab := dataset.Census(rand.New(rand.NewSource(4)), 2000, 8)
	bit := bitKernel(t, tab)
	want, err := GreedyBallsCtx(context.Background(), bit, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := GreedyBallsCtx(context.Background(), bit, 3, math.MaxInt, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cover differs from the one-worker cover")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("allocated %d bytes at workers = MaxInt, want at most %d", alloc, 4<<20)
	}
}

// TestGreedyBallsCountBuild runs the flat count build alone on census
// tables that end just before, on and just past a tile edge and on a
// ragged last tile, under the dense and bitset kernels and one without
// a ranged fill, on 1, 2, 3 and MaxInt workers: every center's tot row
// must be the histogram of its full distance row, and unc must equal
// tot. Tables too small for the layout rule to pick the flat tables
// get them anyway.
func TestGreedyBallsCountBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	for _, n := range []int{1, 2, 255, 256, 257, 511, 700} {
		tab := dataset.Census(rand.New(rand.NewSource(int64(n))), n, 8)
		bit := bitKernel(t, tab)
		kernels := map[string]metric.Kernel{"dense": metric.NewMatrix(tab), "bitset": bit, "pairwise": pairwiseKernel{bit}}
		for name, kern := range kernels {
			width := kern.MaxDist() + 1
			want := make([]int32, n*width)
			for c := range n {
				for v := range n {
					want[c*width+kern.Dist(c, v)]++
				}
			}
			for _, workers := range []int{1, 2, 3, math.MaxInt} {
				cs := newBallCounts(kern, workers)
				if cs.width == 0 {
					cs.width, cs.hist = width, nil
					cs.tot, cs.unc = make([]int32, n*width), make([]int32, n*width)
				}
				cs.build(context.Background())
				for c := range n {
					if got, row := cs.tot[c*width:(c+1)*width], want[c*width:(c+1)*width]; !slices.Equal(got, row) {
						t.Fatalf("n=%d %s workers=%d: center %d counts %v, its distance row holds %v", n, name, workers, c, got, row)
					}
				}
				if !slices.Equal(cs.unc, cs.tot) {
					t.Fatalf("n=%d %s workers=%d: unc differs from tot", n, name, workers)
				}
			}
		}
	}
}

// TestBallCountsLayout pins the rule that picks the count layout from
// the kernel's row count and distance range: flat tables for ranges
// that fit min(n, flatMaxWidth) slots, which every Hamming kernel over
// fewer than 64 columns and more rows than columns does, sparse
// histograms past that. A weighted range of 1,008 over 2,000 rows
// stays sparse: its flat tables would take 16 MB.
func TestBallCountsLayout(t *testing.T) {
	for _, tc := range []struct {
		n, maxd int
		flat    bool
	}{
		{2000, 8, true},     // census Hamming, m = 8
		{2000, 63, true},    // Hamming at the cap
		{2000, 64, false},   // one slot past it
		{2000, 1007, false}, // -weights 1000,1,1,1,1,1,1,1
		{2000, 4095, false}, // weights 2^j over 12 columns
		{20, 19, true},      // range fills every row
		{20, 20, false},     // range past n
		{3, 0, true},        // all rows alike
	} {
		cs := newBallCounts(rangeKernel{n: tc.n, maxd: tc.maxd}, 1)
		if got := cs.width > 0; got != tc.flat {
			t.Errorf("n=%d MaxDist=%d: flat = %v, want %v", tc.n, tc.maxd, got, tc.flat)
		}
		if bytes := 4 * (len(cs.tot) + len(cs.unc)); bytes > 8*flatMaxWidth*tc.n {
			t.Errorf("n=%d MaxDist=%d: flat tables take %d bytes, past %d a center", tc.n, tc.maxd, bytes, 8*flatMaxWidth)
		}
	}
}

// rangeKernel reports a row count and a distance range and nothing
// else: enough for newBallCounts to pick and size its layout.
type rangeKernel struct {
	metric.Kernel
	n, maxd int
}

func (r rangeKernel) Len() int     { return r.n }
func (r rangeKernel) MaxDist() int { return r.maxd }

// bitKernel packs tab into the matrix-free kernel.
func bitKernel(tb testing.TB, tab *relation.Table) *metric.BitKernel {
	tb.Helper()
	bit, err := metric.NewBitKernelCtx(context.Background(), tab)
	if err != nil {
		tb.Fatal(err)
	}
	return bit
}
