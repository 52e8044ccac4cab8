package stream

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"kanon/internal/dataset"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/relation"
)

func traceCorpus(n int) *relation.Table {
	return dataset.Planted(rand.New(rand.NewSource(11)), n, 6, 5, 3, 1)
}

// TestTraceDoesNotChangeRelease re-runs the same streamed instance
// with and without a span, across worker counts, and requires the
// byte-identical release the Options.Trace contract promises.
func TestTraceDoesNotChangeRelease(t *testing.T) {
	tab := traceCorpus(900)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base, err := Anonymize(tab, 3, &Options{BlockRows: 128, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New()
			root := tr.Start("test")
			traced, err := Anonymize(tab, 3, &Options{BlockRows: 128, Workers: workers, Trace: root})
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			if base.Cost != traced.Cost {
				t.Errorf("cost changed under tracing: %d vs %d", base.Cost, traced.Cost)
			}
			if base.Anonymized.String() != traced.Anonymized.String() {
				t.Error("release changed under tracing")
			}

			snap := tr.Snapshot()
			if got := snap.Counters["stream.blocks_done"]; got != int64(traced.Blocks) {
				t.Errorf("stream.blocks_done = %d, want %d", got, traced.Blocks)
			}
			q := snap.Gauges["stream.queue_depth"]
			if q.Last != 0 {
				t.Errorf("queue depth ended at %d, want 0", q.Last)
			}
			if q.Max != int64(traced.Blocks) {
				t.Errorf("queue depth max = %d, want %d", q.Max, traced.Blocks)
			}
			if snap.Counters["stream.worker_busy_ns"] <= 0 {
				t.Error("no worker busy time recorded")
			}
			if snap.Counters["stream.wall_ns"] <= 0 {
				t.Error("no pass wall time recorded")
			}
			if got, want := snap.Gauges["stream.workers"].Last, par.Workers(workers, traced.Blocks); got != int64(want) {
				t.Errorf("workers gauge = %d, want %d", got, want)
			}
		})
	}
}

// TestBlockWorkersShareBudget: one Workers budget bounds the whole
// pass. The block pool takes par.Workers of it over the blocks still to
// run and each block's default algorithm the share par.Split leaves,
// recorded as the stream.block_workers gauge next to stream.workers: 1
// at Workers: 1, the whole budget for a single block. The cover.workers
// gauge, set by every block's ball cover, shows that share is what the
// cover's pools ran on. A resumed pass splits over its pending blocks
// only, so its one recomputed block gets the whole budget. GOMAXPROCS
// is raised so the budgets split on a single-CPU host too.
func TestBlockWorkersShareBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	tab := traceCorpus(600)
	run := func(opt *Options) (*Result, map[string]obs.GaugeStat) {
		t.Helper()
		tr := obs.New()
		root := tr.Start("test")
		opt.Trace = root
		res, err := Anonymize(tab, 3, opt)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Snapshot().Gauges
	}
	check := func(name string, g map[string]obs.GaugeStat, outer, inner int) {
		t.Helper()
		if got := g["stream.workers"].Last; got != int64(outer) {
			t.Errorf("%s: stream.workers = %d, want %d", name, got, outer)
		}
		if got := g["stream.block_workers"].Last; got != int64(inner) {
			t.Errorf("%s: stream.block_workers = %d, want %d", name, got, inner)
		}
		if got := g["cover.workers"]; got.Last != int64(inner) || got.Max != int64(inner) {
			t.Errorf("%s: block covers ran on %d (at most %d) workers, want %d", name, got.Last, got.Max, inner)
		}
	}
	for _, blockRows := range []int{100, 600} {
		var want string
		for _, workers := range []int{1, 2, 4, 0, math.MaxInt} {
			res, g := run(&Options{BlockRows: blockRows, Workers: workers})
			name := fmt.Sprintf("blocks=%d workers=%d", res.Blocks, workers)
			outer, inner := par.Split(workers, res.Blocks)
			check(name, g, outer, inner)
			if budget := par.Workers(workers, math.MaxInt); outer*inner > budget {
				t.Errorf("%s: %d block workers of %d each, past the budget %d", name, outer, inner, budget)
			}
			if workers == 1 && inner != 1 {
				t.Errorf("%s: Workers: 1 runs each block on %d workers", name, inner)
			}
			if res.Blocks == 1 && inner != par.Workers(workers, math.MaxInt) {
				t.Errorf("%s: the single block gets %d workers, not the whole budget", name, inner)
			}
			if got := res.Anonymized.String(); want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s: release differs from Workers: 1", name)
			}
		}
	}

	// Resume with one of six blocks lost: it runs alone, on all 4.
	full := newMemCheckpoint()
	clean, _ := run(&Options{BlockRows: 100, Workers: 1, Checkpoint: full})
	partial := newMemCheckpoint()
	for key, b := range full.blocks {
		if key[0] != 200 {
			partial.blocks[key] = b
		}
	}
	res, g := run(&Options{BlockRows: 100, Workers: 4, Checkpoint: partial})
	if res.BlocksResumed != clean.Blocks-1 {
		t.Fatalf("resumed %d of %d blocks, want %d", res.BlocksResumed, clean.Blocks, clean.Blocks-1)
	}
	check("resumed", g, 1, 4)
	if res.Anonymized.String() != clean.Anonymized.String() {
		t.Error("resumed release differs from the uninterrupted one")
	}
}

// TestTraceBlockSpans checks that every block shows up as its own span
// under "stream", even when opened concurrently.
func TestTraceBlockSpans(t *testing.T) {
	tab := traceCorpus(640)
	tr := obs.New()
	root := tr.Start("test")
	res, err := Anonymize(tab, 3, &Options{BlockRows: 64, Workers: 8, Trace: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("want 1 root span, got %d", len(snap.Spans))
	}
	var streamSpan *obs.SpanSnapshot
	for i := range snap.Spans[0].Children {
		if snap.Spans[0].Children[i].Name == "stream" {
			streamSpan = &snap.Spans[0].Children[i]
		}
	}
	if streamSpan == nil {
		t.Fatal("no \"stream\" span recorded")
	}
	blocks := 0
	for _, c := range streamSpan.Children {
		if strings.HasPrefix(c.Name, "stream.block[") {
			blocks++
			if c.DurNS <= 0 {
				t.Errorf("block span %s has no duration", c.Name)
			}
		}
	}
	if blocks != res.Blocks {
		t.Errorf("recorded %d block spans, want %d", blocks, res.Blocks)
	}
}

// TestTraceRefineCounters: a traced pass with Refine reports refine's
// work through the block spans as three counters, each the sum of its
// field over the blocks' refine.Stats.
func TestTraceRefineCounters(t *testing.T) {
	tab := dataset.Census(rand.New(rand.NewSource(12)), 900, 6)
	tr := obs.New()
	root := tr.Start("test")
	res, err := Anonymize(tab, 3, &Options{BlockRows: 128, Workers: 2, Refine: true, Trace: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, b := range res.BlockStats {
		want["refine.rounds"] += int64(b.Refine.Rounds)
		want["refine.moves"] += int64(b.Refine.Relocates + b.Refine.Swaps + b.Refine.Dissolves)
		want["refine.cost_saved"] += int64(b.Refine.CostBefore - b.Refine.CostAfter)
	}
	if want["refine.moves"] == 0 || want["refine.cost_saved"] == 0 {
		t.Fatalf("refine found nothing to do on the corpus: %v", want)
	}
	snap := tr.Snapshot()
	for name, w := range want {
		if got := snap.Counters[name]; got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
}
