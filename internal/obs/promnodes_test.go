package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusNodes: a multi-node exposition lints, shares one
// HELP/TYPE head per family, and labels every sample with its node.
func TestWritePrometheusNodes(t *testing.T) {
	a := promSnapshot()
	b := promSnapshot()
	var out strings.Builder
	err := WritePrometheusNodes(&out, "kanon", []NodeSnapshot{
		{Node: "node-b", Snap: b},
		{Node: "node-a", Snap: a},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if err := LintPrometheus([]byte(text)); err != nil {
		t.Fatalf("lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		`kanon_cover_sets_picked_total{node="node-a"} 12`,
		`kanon_cover_sets_picked_total{node="node-b"} 12`,
		`kanon_stream_queue_depth{node="node-a"} 3`,
		`kanon_stream_queue_depth_max{node="node-b"} 3`,
		`kanon_stream_block_ns_bucket{le="+Inf",node="node-a"} 3`,
		`kanon_stream_block_ns_sum{node="node-b"} 5200`,
		`kanon_stream_block_ns_count{node="node-a"} 3`,
		`kanon_progress_done{task="stream.blocks",node="node-a"} 5`,
		`kanon_span_seconds{span="run",node="node-b"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// One family head serves both nodes' samples.
	for _, head := range []string{
		"# TYPE kanon_cover_sets_picked_total counter",
		"# TYPE kanon_stream_block_ns histogram",
	} {
		if got := strings.Count(text, head); got != 1 {
			t.Errorf("%q appears %d times, want 1:\n%s", head, got, text)
		}
	}
	// Node order is sorted regardless of input order.
	if ai, bi := strings.Index(text, `node="node-a"`), strings.Index(text, `node="node-b"`); ai > bi {
		t.Errorf("node-a series should precede node-b:\n%s", text)
	}
}

// TestWritePrometheusNodesSingleUnlabeled: one empty-named entry must
// reproduce the legacy single-node exposition byte for byte —
// WritePrometheus delegates here, and files written by older tooling
// must stay diffable.
func TestWritePrometheusNodesSingleUnlabeled(t *testing.T) {
	snap := promSnapshot()
	var legacy, nodes strings.Builder
	if err := snap.WritePrometheus(&legacy, "kanon"); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheusNodes(&nodes, "kanon", []NodeSnapshot{{Snap: snap}}); err != nil {
		t.Fatal(err)
	}
	if legacy.String() != nodes.String() {
		t.Errorf("single unlabeled node diverges from WritePrometheus:\n--- legacy\n%s--- nodes\n%s",
			legacy.String(), nodes.String())
	}
}

// TestWritePrometheusNodesDuplicatesMerge: two snapshots under one node
// name pre-merge into a single series set (duplicate series in one
// family are invalid exposition), without mutating the inputs.
func TestWritePrometheusNodesDuplicatesMerge(t *testing.T) {
	a := &Snapshot{Counters: map[string]int64{"c": 1}}
	b := &Snapshot{Counters: map[string]int64{"c": 2}}
	var out strings.Builder
	err := WritePrometheusNodes(&out, "kanon", []NodeSnapshot{
		{Node: "n", Snap: a},
		{Node: "n", Snap: b},
		{Node: "other", Snap: nil}, // nil snapshots are dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if err := LintPrometheus([]byte(text)); err != nil {
		t.Fatalf("lint: %v\n%s", err, text)
	}
	if !strings.Contains(text, `kanon_c_total{node="n"} 3`) {
		t.Errorf("duplicate node counters not summed:\n%s", text)
	}
	if strings.Contains(text, "other") {
		t.Errorf("nil snapshot's node leaked into the exposition:\n%s", text)
	}
	if a.Counters["c"] != 1 || b.Counters["c"] != 2 {
		t.Errorf("inputs mutated by merge: a=%d b=%d", a.Counters["c"], b.Counters["c"])
	}
}

// TestWritePrometheusNodesCollisions: sanitize collisions across
// instrument kinds still lint when every sample carries a node label.
func TestWritePrometheusNodesCollisions(t *testing.T) {
	snap := &Snapshot{
		Counters: map[string]int64{"a.b": 1, "a_b": 2, "h_count": 3},
		Histograms: map[string]HistogramStat{
			"h": {Count: 1, Sum: 1, Buckets: []HistogramBucket{{Le: 1, Count: 1}}},
		},
	}
	var out strings.Builder
	err := WritePrometheusNodes(&out, "kanon", []NodeSnapshot{
		{Node: "node-a", Snap: snap},
		{Node: "node-b", Snap: snap},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if err := LintPrometheus([]byte(text)); err != nil {
		t.Fatalf("lint: %v\n%s", err, text)
	}
	if !strings.Contains(text, "_dup2") {
		t.Errorf("colliding names did not get a dedup suffix:\n%s", text)
	}
}

// TestSnapshotMergeOrdersSpansByWallClock: roots from two tracers
// (different processes, incomparable monotonic clocks) interleave by
// their wall-clock anchors — the property that stitches a stolen job's
// two segments into one chronological timeline.
func TestSnapshotMergeOrdersSpansByWallClock(t *testing.T) {
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	mk := func(name string, start time.Time) SpanSnapshot {
		return SpanSnapshot{Name: name, WallNS: start.UnixNano(), DurNS: int64(time.Second)}
	}
	a := &Snapshot{Spans: []SpanSnapshot{mk("job@node-a", t0)}}
	b := &Snapshot{Spans: []SpanSnapshot{
		mk("job@node-b", t0.Add(30*time.Second)),
		mk("job@node-b", t0.Add(-5*time.Second)), // e.g. an earlier aborted segment
	}}
	b.Merge(a)
	names := make([]string, len(b.Spans))
	var lastWall int64 = -1 << 62
	for i, sp := range b.Spans {
		names[i] = sp.Name
		if sp.WallNS < lastWall {
			t.Fatalf("spans out of wall order at %d: %v", i, b.Spans)
		}
		lastWall = sp.WallNS
	}
	want := []string{"job@node-b", "job@node-a", "job@node-b"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("merged root order %v, want %v", names, want)
		}
	}
}

// TestSnapshotFreshUnderConcurrentPolling pins the span-freshness fix:
// every poll of a live tracer takes its "now" per root under the lock,
// so an unfinished span's duration never decreases between polls and a
// child never outlives its root within one snapshot.
func TestSnapshotFreshUnderConcurrentPolling(t *testing.T) {
	tr := New()
	root := tr.Start("job")
	child := root.Start("anonymize")
	defer func() { child.End(); root.End() }()

	const pollers = 4
	var wg sync.WaitGroup
	errs := make(chan string, pollers)
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastRoot int64 = -1
			for i := 0; i < 200; i++ {
				snap := tr.Snapshot()
				if len(snap.Spans) != 1 {
					errs <- "snapshot lost the root span"
					return
				}
				r := snap.Spans[0]
				// Monotonic per poller: an unfinished span only grows.
				if r.DurNS < lastRoot {
					errs <- "root DurNS shrank between polls"
					return
				}
				lastRoot = r.DurNS
				// Internally consistent: the child started after the root
				// and cannot extend past the root's measured duration.
				for _, c := range r.Children {
					if c.StartNS < 0 || c.StartNS+c.DurNS > r.DurNS {
						errs <- "child span extends past its root within one snapshot"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
