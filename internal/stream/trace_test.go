package stream

import (
	"fmt"
	"math/rand"
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
