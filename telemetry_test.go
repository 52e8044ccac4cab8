package kanon_test

// Telemetry determinism and the /metrics acceptance path: with every
// export surface enabled at once — external span, structured JSON log,
// progress instruments, Prometheus endpoint — the released table must
// stay byte-identical to the silent run, across worker counts. This is
// the contract the whole internal/obs layer promises ("telemetry
// observes, never steers"), exercised end-to-end through the facade
// and the streaming pipeline.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"kanon"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/relation"
	"kanon/internal/stream"
)

func TestTelemetryDeterminism(t *testing.T) {
	header, rows := genTable(240, 6, 7)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base, err := kanon.Anonymize(header, rows, 3, &kanon.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			// Everything on: external span under a live tracer, JSON
			// event log, and Trace (Span wins; Stats must stay nil).
			tr := obs.New()
			root := tr.Start("test")
			var logBuf bytes.Buffer
			full, err := kanon.Anonymize(header, rows, 3, &kanon.Options{
				Workers: workers,
				Trace:   true,
				Span:    root,
				Log:     slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
			})
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			if !reflect.DeepEqual(base.Rows, full.Rows) {
				t.Error("released rows changed with telemetry on")
			}
			if base.Cost != full.Cost || !reflect.DeepEqual(base.Groups, full.Groups) {
				t.Error("cost or groups changed with telemetry on")
			}
			if full.Stats != nil {
				t.Error("Stats set although an external Span was given")
			}
			snap := tr.Snapshot()
			if snap.Counters["kanon.entries_suppressed"] != int64(full.Cost) {
				t.Errorf("external tracer missed the run: %+v", snap.Counters)
			}
			if len(snap.Histograms) == 0 {
				t.Error("no histograms recorded under the external span")
			}
			if !strings.Contains(logBuf.String(), `"msg":"run_start"`) ||
				!strings.Contains(logBuf.String(), `"msg":"run_done"`) {
				t.Errorf("event log missing run boundary events:\n%s", logBuf.String())
			}
			if !strings.Contains(logBuf.String(), `"run_id"`) {
				t.Error("event log records carry no run_id")
			}
		})
	}
}

// TestEveryPathNarrates: with Trace and a Debug JSON Log, every span a
// run opens ends in exactly one phase_done line, so the log's phases
// are the trace's span names — for every registered solver, a refined
// suppression run, and the block path with refine — all under the one
// run ID of the run's run_start and run_done.
func TestEveryPathNarrates(t *testing.T) {
	header, rows := genTable(60, 5, 9)
	smallHeader, smallRows := genTable(14, 4, 9) // exact and exhaustive
	type path struct {
		name string
		run  func(*kanon.Options) (*kanon.Result, error)
	}
	var paths []path
	for _, name := range kanon.AlgorithmNames() {
		alg, err := kanon.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		h, r := header, rows
		if alg == kanon.AlgoExact || alg == kanon.AlgoGreedyExhaustive {
			h, r = smallHeader, smallRows
		}
		paths = append(paths, path{name, func(o *kanon.Options) (*kanon.Result, error) {
			o.Algorithm = alg
			return kanon.Anonymize(h, r, 3, o)
		}})
	}
	paths = append(paths,
		path{"mondrian+refine", func(o *kanon.Options) (*kanon.Result, error) {
			o.Algorithm, o.Refine = kanon.AlgoMondrian, true
			return kanon.Anonymize(header, rows, 3, o)
		}},
		path{"blocks+refine", func(o *kanon.Options) (*kanon.Result, error) {
			o.Refine = true
			res, _, err := kanon.AnonymizeBlocks(context.Background(), header, rows, 3, 24, o, nil)
			return res, err
		}})
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			var logBuf bytes.Buffer
			res, err := p.run(&kanon.Options{
				Trace: true,
				Log:   slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int{}
			var walk func([]obs.SpanSnapshot)
			walk = func(spans []obs.SpanSnapshot) {
				for _, sp := range spans {
					want[sp.Name]++
					walk(sp.Children)
				}
			}
			walk(res.Stats.Spans)
			got := map[string]int{}
			runs := map[string]int{}
			ids := map[string]bool{}
			for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
				var rec struct {
					Msg, Phase string
					RunID      string `json:"run_id"`
				}
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("log line %q: %v", line, err)
				}
				ids[rec.RunID] = true
				if rec.Msg == "phase_done" {
					got[rec.Phase]++
				} else {
					runs[rec.Msg]++
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("phase_done phases %v, want the span names %v", got, want)
			}
			if runs["run_start"] != 1 || runs["run_done"] != 1 || len(ids) != 1 {
				t.Errorf("run lines %v under run IDs %v, want one run_start and one run_done under one ID", runs, ids)
			}
		})
	}
}

// TestStreamTelemetryDeterminism covers the worker-pool path: block
// histograms, progress, and the event log must not perturb the
// streamed release.
func TestStreamTelemetryDeterminism(t *testing.T) {
	tbl := genStreamTable(t, 300, 4, 11)
	base, err := stream.Anonymize(tbl, 3, &stream.Options{BlockRows: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		tr := obs.New()
		root := tr.Start("run")
		var logBuf bytes.Buffer
		root.Narrate(obs.NewEvents(slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})), "strm"))
		res, err := stream.Anonymize(tbl, 3, &stream.Options{
			BlockRows: 64, Workers: workers, Trace: root,
		})
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		if res.Cost != base.Cost {
			t.Errorf("workers=%d: cost %d != base %d with telemetry on", workers, res.Cost, base.Cost)
		}
		for i := 0; i < base.Anonymized.Len(); i++ {
			if !reflect.DeepEqual(base.Anonymized.Strings(i), res.Anonymized.Strings(i)) {
				t.Fatalf("workers=%d: row %d differs with telemetry on", workers, i)
			}
		}
		snap := tr.Snapshot()
		h, ok := snap.Histograms["stream.block_ns"]
		if !ok || h.Count != int64(res.Blocks) {
			t.Errorf("workers=%d: block_ns histogram has %d observations, want %d", workers, h.Count, res.Blocks)
		}
		p, ok := snap.Progress["stream.blocks"]
		if !ok || p.Done != int64(res.Blocks) || p.Total != int64(res.Blocks) {
			t.Errorf("workers=%d: progress = %+v, want %d/%d", workers, p, res.Blocks, res.Blocks)
		}
	}
}

// TestMetricsFromRealRun is the acceptance test for the /metrics
// endpoint: a real streamed Anonymize under a live tracer must surface
// at least one populated counter, gauge, and histogram family in valid
// exposition format.
func TestMetricsFromRealRun(t *testing.T) {
	tbl := genStreamTable(t, 300, 4, 13)
	tr := obs.New()
	root := tr.Start("run")
	res, err := stream.Anonymize(tbl, 3, &stream.Options{BlockRows: 64, Workers: 2, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	srv := httptest.NewServer(obs.DebugMux(tr.Snapshot))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type = %q, want %q", ct, obs.PromContentType)
	}
	if err := obs.LintPrometheus(body); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
	text := string(body)
	// One populated family of each kind, from the real run.
	for _, want := range []string{
		"# TYPE kanon_stream_blocks_done_total counter",
		"# TYPE kanon_stream_workers gauge",
		fmt.Sprintf("kanon_stream_workers %d", par.Workers(2, res.Blocks)),
		"# TYPE kanon_stream_block_ns histogram",
		`le="+Inf"`,
		`kanon_progress_done{task="stream.blocks"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The counter and histogram are populated, not just declared.
	if strings.Contains(text, "kanon_stream_blocks_done_total 0\n") {
		t.Error("blocks_done counter unpopulated")
	}
	if strings.Contains(text, "kanon_stream_block_ns_count 0\n") {
		t.Error("block_ns histogram unpopulated")
	}
}

// genStreamTable builds a deterministic relation.Table for the stream
// tests (the stream API takes tables, not string rows).
func genStreamTable(t *testing.T, n, m int, seed int64) *relation.Table {
	t.Helper()
	header, rows := genTable(n, m, seed)
	tbl := relation.NewTable(relation.NewSchema(header...))
	for i, r := range rows {
		if err := tbl.AppendStrings(r...); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	return tbl
}
