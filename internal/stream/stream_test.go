package stream

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"kanon/internal/algo"
	"kanon/internal/dataset"
	"kanon/internal/relation"
)

func TestBasicStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := dataset.Census(rng, 200, 6)
	res, err := Anonymize(tab, 3, &Options{BlockRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anonymized.Len() != 200 {
		t.Fatalf("output rows %d", res.Anonymized.Len())
	}
	if !res.Anonymized.IsKAnonymous(3) {
		t.Error("output not 3-anonymous")
	}
	if res.Blocks != 4 {
		t.Errorf("blocks = %d, want 4", res.Blocks)
	}
	if res.Cost != res.Anonymized.TotalStars() {
		t.Errorf("cost %d != stars %d", res.Cost, res.Anonymized.TotalStars())
	}
	// Non-starred cells preserved in order.
	for i := 0; i < tab.Len(); i++ {
		orig, anon := tab.Row(i), res.Anonymized.Row(i)
		for j := range orig {
			if anon[j] != relation.Star && anon[j] != orig[j] {
				t.Fatalf("cell (%d,%d) rewritten", i, j)
			}
		}
	}
}

func TestShortTailAbsorbed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 52 rows with block 25 and k=3: blocks [0,25), [25,52) — the tail
	// of 2 < k rows is merged into the second block rather than left
	// unanonymizable.
	tab := dataset.Uniform(rng, 52, 4, 3)
	res, err := Anonymize(tab, 3, &Options{BlockRows: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 2 {
		t.Errorf("blocks = %d, want 2", res.Blocks)
	}
	if !res.Anonymized.IsKAnonymous(3) {
		t.Error("output not 3-anonymous")
	}
}

func TestSingleBlockMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := dataset.Zipf(rng, 40, 5, 6, 1.5)
	direct, err := algo.GreedyBall(tab, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Anonymize(tab, 2, &Options{BlockRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1", streamed.Blocks)
	}
	if streamed.Cost != direct.Cost {
		t.Errorf("single-block cost %d != direct %d", streamed.Cost, direct.Cost)
	}
}

// TestCostMonotoneInBlockSize: larger blocks give the greedy strictly
// more options, so aggregate cost must not increase on a fixed corpus.
func TestCostMonotoneInBlockSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := dataset.Census(rng, 300, 6)
	prev := -1
	for _, block := range []int{20, 60, 150, 300} {
		res, err := Anonymize(tab, 3, &Options{BlockRows: block, Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Cost > prev+prev/10 {
			// Allow a small tolerance: greedy is not strictly monotone
			// in its candidate pool, though it should be close.
			t.Errorf("block %d cost %d well above smaller-block cost %d", block, res.Cost, prev)
		}
		prev = res.Cost
	}
}

func TestRefineOptionHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := dataset.Census(rng, 120, 6)
	plain, err := Anonymize(tab, 3, &Options{BlockRows: 40})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Anonymize(tab, 3, &Options{BlockRows: 40, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Cost > plain.Cost {
		t.Errorf("refined %d > plain %d", refined.Cost, plain.Cost)
	}
}

func TestCustomAlgo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := dataset.Uniform(rng, 30, 4, 2)
	calls := 0
	res, err := Anonymize(tab, 2, &Options{
		BlockRows: 10,
		// Workers: 1 so the unsynchronized call counter is safe.
		Workers: 1,
		Algo: func(bt *relation.Table, k int) (*algo.Result, error) {
			calls++
			return algo.GreedyBall(bt, k, &algo.Options{SplitSorted: true})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Blocks || calls != 3 {
		t.Errorf("custom algo called %d times, blocks %d", calls, res.Blocks)
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := dataset.Uniform(rng, 5, 3, 2)
	if _, err := Anonymize(tab, 0, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Anonymize(tab, 9, nil); err == nil {
		t.Error("accepted n < k")
	}
	// Tiny block sizes are clamped to 2k, not rejected.
	res, err := Anonymize(tab, 2, &Options{BlockRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Anonymized.IsKAnonymous(2) {
		t.Error("clamped block output invalid")
	}
}

func TestLargeInputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large input")
	}
	rng := rand.New(rand.NewSource(8))
	tab := dataset.Census(rng, 20000, 8)
	res, err := Anonymize(tab, 5, &Options{BlockRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 20 {
		t.Errorf("blocks = %d", res.Blocks)
	}
	if !res.Anonymized.IsKAnonymous(5) {
		t.Error("20k-row output not 5-anonymous")
	}
}

// TestParallelMatchesSequential is the determinism property test: the
// concurrent block pipeline must release a byte-identical table (and
// identical stats) to the Workers: 1 path across seeds, block sizes,
// and k.
func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 9, 77} {
		for _, block := range []int{30, 64, 100} {
			for _, k := range []int{2, 3} {
				rng := rand.New(rand.NewSource(seed))
				tab := dataset.Census(rng, 250, 6)
				seq, err := Anonymize(tab, k, &Options{BlockRows: block, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 2, 5} {
					par, err := Anonymize(tab, k, &Options{BlockRows: block, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if par.Cost != seq.Cost || par.Blocks != seq.Blocks {
						t.Fatalf("seed=%d block=%d k=%d workers=%d: cost/blocks %d/%d, want %d/%d",
							seed, block, k, workers, par.Cost, par.Blocks, seq.Cost, seq.Blocks)
					}
					for i := 0; i < seq.Anonymized.Len(); i++ {
						a, b := seq.Anonymized.Strings(i), par.Anonymized.Strings(i)
						for j := range a {
							if a[j] != b[j] {
								t.Fatalf("seed=%d block=%d k=%d workers=%d: cell (%d,%d) %q != %q",
									seed, block, k, workers, i, j, b[j], a[j])
							}
						}
					}
					if len(par.BlockStats) != len(seq.BlockStats) {
						t.Fatalf("block stats length %d != %d", len(par.BlockStats), len(seq.BlockStats))
					}
					for bi := range seq.BlockStats {
						if par.BlockStats[bi] != seq.BlockStats[bi] {
							t.Fatalf("block %d stats differ: %+v vs %+v", bi, par.BlockStats[bi], seq.BlockStats[bi])
						}
					}
				}
			}
		}
	}
}

// TestStreamHugeWorkerCount passes a worker count nothing caps, as a
// caller's -workers flag or workers= query can: the pass must run at
// most GOMAXPROCS blocks at once, not one block (with its distance
// matrix and cover) per requested worker, and release what one worker
// does.
func TestStreamHugeWorkerCount(t *testing.T) {
	tab := dataset.Census(rand.New(rand.NewSource(41)), 64*16, 6)
	var inFlight, peak atomic.Int64
	run := func(workers int) *Result {
		res, err := Anonymize(tab, 3, &Options{BlockRows: 16, Workers: workers,
			Algo: func(bt *relation.Table, k int) (*algo.Result, error) {
				now := inFlight.Add(1)
				defer inFlight.Add(-1)
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				// Hold the block long enough that blocks a pool runs
				// together overlap here.
				time.Sleep(time.Millisecond)
				return algo.GreedyBall(bt, k, &algo.Options{Workers: 1})
			}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	peak.Store(0)
	got := run(1 << 20)
	if got.Blocks < 64 {
		t.Fatalf("%d blocks, want at least 64", got.Blocks)
	}
	if p, procs := peak.Load(), runtime.GOMAXPROCS(0); p > int64(procs) {
		t.Errorf("%d blocks ran at once, GOMAXPROCS is %d", p, procs)
	}
	if got.Cost != want.Cost || got.Anonymized.String() != want.Anonymized.String() {
		t.Errorf("Workers: 1<<20 released cost %d, Workers: 1 cost %d, or the rows differ", got.Cost, want.Cost)
	}
}

// TestBlockStats verifies the per-block observability contract: ranges
// tile the input, per-block costs sum to the total, and refine stats
// appear exactly when requested and never increase cost.
func TestBlockStats(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := dataset.Census(rng, 200, 6)
	res, err := Anonymize(tab, 3, &Options{BlockRows: 50, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BlockStats) != res.Blocks {
		t.Fatalf("BlockStats has %d entries for %d blocks", len(res.BlockStats), res.Blocks)
	}
	wantLo, costSum := 0, 0
	for bi, bs := range res.BlockStats {
		if bs.Lo != wantLo {
			t.Fatalf("block %d starts at %d, want %d", bi, bs.Lo, wantLo)
		}
		if bs.Hi <= bs.Lo {
			t.Fatalf("block %d empty range [%d,%d)", bi, bs.Lo, bs.Hi)
		}
		wantLo = bs.Hi
		costSum += bs.Cost
		if bs.Refine == nil {
			t.Fatalf("block %d missing refine stats with Refine: true", bi)
		}
		if bs.Refine.CostAfter > bs.Refine.CostBefore {
			t.Fatalf("block %d refine increased cost %d → %d", bi, bs.Refine.CostBefore, bs.Refine.CostAfter)
		}
	}
	if wantLo != tab.Len() {
		t.Fatalf("blocks cover [0,%d), want [0,%d)", wantLo, tab.Len())
	}
	if costSum != res.Cost {
		t.Fatalf("per-block costs sum to %d, total is %d", costSum, res.Cost)
	}
	plain, err := Anonymize(tab, 3, &Options{BlockRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	for bi, bs := range plain.BlockStats {
		if bs.Refine != nil {
			t.Fatalf("block %d has refine stats without Refine: true", bi)
		}
	}
}

// TestErrorPropagationDeterministic checks that when several blocks
// fail, every worker count reports the same (lowest-index) block's
// error — matching what the sequential loop would have said.
func TestErrorPropagationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tab := dataset.Uniform(rng, 120, 4, 3)
	failing := func(bt *relation.Table, k int) (*algo.Result, error) {
		if bt.Len() < 100 { // every block of 30 fails; a whole-table run would not
			return nil, errors.New("boom")
		}
		return algo.GreedyBall(bt, k, nil)
	}
	var want string
	for _, workers := range []int{1, 0, 2, 4} {
		_, err := Anonymize(tab, 2, &Options{BlockRows: 30, Workers: workers, Algo: failing})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err.Error(), want)
		}
	}
	if want != `stream: block [0,30): boom` {
		t.Fatalf("unexpected first-block error %q", want)
	}
}
