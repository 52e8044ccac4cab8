package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := New()
	root := tr.Start("root")
	a := root.Start("a")
	aa := a.Start("a.a")
	time.Sleep(time.Millisecond)
	aa.End()
	a.End()
	b := root.Start("b")
	b.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("want 1 root span, got %d", len(snap.Spans))
	}
	r := snap.Spans[0]
	if r.Name != "root" || len(r.Children) != 2 {
		t.Fatalf("root = %q with %d children, want root with 2", r.Name, len(r.Children))
	}
	if r.Children[0].Name != "a" || r.Children[1].Name != "b" {
		t.Fatalf("children = %q, %q; want a, b", r.Children[0].Name, r.Children[1].Name)
	}
	if len(r.Children[0].Children) != 1 || r.Children[0].Children[0].Name != "a.a" {
		t.Fatalf("grandchildren wrong: %+v", r.Children[0].Children)
	}
	// Containment: a well-nested child never outlasts its parent.
	if got, limit := r.Children[0].Children[0].DurNS, r.Children[0].DurNS; got > limit {
		t.Errorf("child dur %d > parent dur %d", got, limit)
	}
	if r.DurNS < r.Children[0].DurNS {
		t.Errorf("root dur %d < child dur %d", r.DurNS, r.Children[0].DurNS)
	}
	if r.Children[1].StartNS < r.Children[0].StartNS {
		t.Errorf("children not in start order: %d before %d", r.Children[1].StartNS, r.Children[0].StartNS)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := New()
	sp := tr.Start("s")
	first := sp.End()
	if got := tr.Snapshot().Spans[0].DurNS; got != first.Nanoseconds() {
		t.Errorf("End returned %d, snapshot holds %d", first, got)
	}
	time.Sleep(2 * time.Millisecond)
	// A second End must not extend the span, and returns the frozen
	// duration.
	if again := sp.End(); again != first {
		t.Errorf("second End returned %d, want %d", again, first)
	}
	if again := tr.Snapshot().Spans[0].DurNS; again != first.Nanoseconds() {
		t.Errorf("second End changed duration: %d → %d", first, again)
	}
}

func TestUnfinishedSpanReportsElapsed(t *testing.T) {
	tr := New()
	_ = tr.Start("open")
	time.Sleep(2 * time.Millisecond)
	if d := tr.Snapshot().Spans[0].DurNS; d < int64(time.Millisecond) {
		t.Errorf("unfinished span duration %d, want ≥ 1ms", d)
	}
}

// TestCounterAtomicity hammers one counter and one gauge from many
// goroutines; run under -race this doubles as the data-race proof.
func TestCounterAtomicity(t *testing.T) {
	tr := New()
	root := tr.Start("root")
	c := root.Counter("hits")
	g := root.Gauge("depth")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge settled at %d, want 0", got)
	}
	if max := g.Max(); max < 1 || max > workers {
		t.Errorf("gauge max = %d, want in [1, %d]", max, workers)
	}
	// Same name must return the same counter.
	if tr.Counter("hits") != c {
		t.Error("Counter(name) not idempotent")
	}
}

// TestConcurrentChildSpans mirrors the stream workers: many goroutines
// opening children under one parent. Run with -race.
func TestConcurrentChildSpans(t *testing.T) {
	tr := New()
	root := tr.Start("stream")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.Start(fmt.Sprintf("block-%d-%d", w, i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	snap := tr.Snapshot()
	if got := len(snap.Spans[0].Children); got != 8*50 {
		t.Errorf("child spans = %d, want %d", got, 8*50)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New()
	root := tr.Start("root")
	child := root.Start("phase")
	child.End()
	root.Counter("cover.sets_picked").Add(7)
	root.Gauge("queue").Set(3)
	root.Gauge("queue").Set(1)
	root.End()
	snap := tr.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*snap, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, *snap)
	}
	// Serialization is deterministic (encoding/json sorts map keys).
	data2, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("snapshot JSON not deterministic")
	}
}

// TestNilSafety drives the whole API through nil receivers — the
// disabled-tracer path every instrumented hot loop takes.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("ignored")
	if sp != nil {
		t.Fatal("nil tracer returned live span")
	}
	child := sp.Start("ignored")
	if child != nil {
		t.Fatal("nil span returned live child")
	}
	if sp.End() != 0 {
		t.Error("nil span ended with a duration")
	}
	sp.Narrate(nil)
	sp.Anomaly("k", 1)
	c := sp.Counter("n")
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Error("nil counter loaded nonzero")
	}
	g := sp.Gauge("n")
	g.Set(5)
	g.Add(1)
	if g.Load() != 0 || g.Max() != 0 {
		t.Error("nil gauge loaded nonzero")
	}
	if tr.Counter("n") != nil || tr.Gauge("n") != nil || sp.Tracer() != nil {
		t.Error("nil tracer handed out live instruments")
	}
	if tr.Snapshot() != nil {
		t.Error("nil tracer produced snapshot")
	}
	var ns *Snapshot
	ns.Merge(&Snapshot{Counters: map[string]int64{"a": 1}})
	if err := ns.WriteTree(io.Discard); err != nil {
		t.Errorf("nil snapshot WriteTree: %v", err)
	}
}

// TestDisabledPathAllocatesNothing pins the "compiled-out-cheap" claim:
// a disabled span is a nil check, with no clock reads or allocations.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	var c *Counter
	var g *Gauge
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("x")
		inner := sp.Start("y")
		c.Add(1)
		g.Set(2)
		inner.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %.1f objects per op, want 0", allocs)
	}
}

func TestWriteTreeShape(t *testing.T) {
	snap := &Snapshot{
		Spans: []SpanSnapshot{{
			Name: "kanon", DurNS: int64(100 * time.Millisecond),
			Children: []SpanSnapshot{
				{Name: "load", DurNS: int64(10 * time.Millisecond)},
				{Name: "anonymize", DurNS: int64(80 * time.Millisecond),
					Children: []SpanSnapshot{{Name: "cover", StartNS: 1, DurNS: int64(60 * time.Millisecond)}}},
			},
		}},
		Counters: map[string]int64{"cover.sets_picked": 12},
		Gauges:   map[string]GaugeStat{"queue": {Last: 0, Max: 4}},
	}
	var b strings.Builder
	if err := snap.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"kanon", "├─ load", "└─ anonymize", "└─ cover", "100.0%", "cover.sets_picked", "queue", "(max 4)"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
}

func TestMerge(t *testing.T) {
	a := &Snapshot{Counters: map[string]int64{"x": 1}, Gauges: map[string]GaugeStat{"g": {Last: 1, Max: 5}}}
	b := &Snapshot{Counters: map[string]int64{"x": 2, "y": 3}, Gauges: map[string]GaugeStat{"g": {Last: 2, Max: 3}, "h": {Last: 1, Max: 1}}}
	a.Merge(b)
	if a.Counters["x"] != 3 || a.Counters["y"] != 3 {
		t.Errorf("merged counters = %v", a.Counters)
	}
	if g := a.Gauges["g"]; g.Last != 2 || g.Max != 5 {
		t.Errorf("merged gauge = %+v, want last 2 max 5", g)
	}
	if _, ok := a.Gauges["h"]; !ok {
		t.Error("merge dropped new gauge")
	}
	// Merging into an empty snapshot allocates the maps.
	var c Snapshot
	c.Merge(b)
	if c.Counters["y"] != 3 || c.Gauges["h"].Max != 1 {
		t.Errorf("merge into empty = %+v", c)
	}
}

func TestDebugServer(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	root.Counter("n").Add(42)
	srv, err := StartDebugServer("127.0.0.1:0", tr.Snapshot)
	if err != nil {
		t.Skipf("cannot listen on loopback in this environment: %v", err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/obs", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if path == "/debug/obs" && !strings.Contains(string(body), `"counters"`) {
			t.Errorf("obs endpoint body missing counters: %s", body)
		}
	}
}
