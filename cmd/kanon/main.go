// Command kanon k-anonymizes a CSV table by entry suppression.
//
// Usage:
//
//	kanon -k 3 [-algo ball] [-in table.csv] [-out anon.csv] [-stats]
//
// The input's first record is the header. The output is the same table
// with suppressed entries replaced by "*"; -stats prints the objective
// value and group structure to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kanon"
	"kanon/internal/obs"
	"kanon/internal/quality"
	"kanon/internal/relation"
)

func main() {
	// SIGINT/SIGTERM cancel the run's context, so even a large -block
	// pass (or a long exact solve) aborts at its next context poll and
	// unwinds cleanly instead of dying at process teardown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "kanon: canceled")
		} else {
			fmt.Fprintln(os.Stderr, "kanon:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	// `kanon jobs ...` is a remote-inspection subcommand, not an
	// anonymization run; dispatch before the main flag set sees it.
	if len(args) > 0 && args[0] == "jobs" {
		return runJobsCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("kanon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 3, "anonymity parameter: every released row is identical to ≥ k−1 others")
	algoName := fs.String("algo", "ball", "algorithm: "+strings.Join(kanon.AlgorithmNames(), ", "))
	hierPath := fs.String("hierarchy", "", "generalization-hierarchy sidecar (JSON or CSV) for -algo hierarchy; empty derives one from the data")
	suppress := fs.Int("suppress", 0, "row-suppression budget for -algo hierarchy: up to this many outlier rows release fully starred")
	inPath := fs.String("in", "", "input CSV path (default stdin)")
	outPath := fs.String("out", "", "output CSV path (default stdout)")
	stats := fs.Bool("stats", false, "print cost and group sizes to stderr")
	seed := fs.Int64("seed", 1, "shuffle seed for -algo random")
	refine := fs.Bool("refine", false, "post-optimize with cost-direct local search (never worse)")
	verify := fs.Bool("verify", false, "verify the input is already k-anonymous instead of anonymizing; exit 1 if not")
	block := fs.Int("block", 0, "stream in blocks of this many rows (bounded memory; 0 = whole table at once)")
	workers := fs.Int("workers", 0, "worker goroutines for the parallel hot paths (0 = all CPUs, 1 = sequential; output is identical)")
	kernelName := fs.String("kernel", "auto", "distance kernel: auto, dense (precomputed O(n²) matrix), or bitset (matrix-free popcount rows; output is identical)")
	weightsArg := fs.String("weights", "", "comma-separated per-column suppression weights, e.g. 3,1,1,5 (ball and exact only)")
	trace := fs.Bool("trace", false, "print the phase-timing tree and counters to stderr")
	traceJSON := fs.Bool("trace-json", false, "print the trace as one JSON object to stderr")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof, expvar, /debug/obs, and /metrics on this address for the duration of the run (e.g. localhost:6060)")
	progress := fs.Bool("progress", false, "render a live progress/ETA line to stderr during the run")
	metricsOut := fs.String("metrics-out", "", "write the final metrics in Prometheus text format to this file")
	logEvents := fs.Bool("log", false, "emit structured JSON run events (log/slog) to stderr")
	version := fs.Bool("version", false, "print build provenance and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, obs.ReadBuild().String())
		return nil
	}

	alg, err := kanon.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	kern, err := kanon.ParseKernel(*kernelName)
	if err != nil {
		return err
	}
	if alg != kanon.AlgoHierarchy && (*hierPath != "" || *suppress != 0) {
		return fmt.Errorf("-hierarchy and -suppress require -algo hierarchy (got -algo %s)", alg)
	}
	if alg == kanon.AlgoHierarchy && *refine {
		return fmt.Errorf("-algo hierarchy releases a generalization, not a partition, so there is nothing to refine; drop -refine")
	}
	var hspec *kanon.HierarchySpec
	if *hierPath != "" {
		b, err := os.ReadFile(*hierPath)
		if err != nil {
			return err
		}
		hspec, err = kanon.ParseHierarchySpec(b)
		if err != nil {
			return err
		}
	}

	// The whole run is traced under one root span so the printed tree
	// accounts for (nearly) all of the process wall time: CSV load, the
	// anonymization itself (the facade opens its "anonymize" span under
	// the root it is handed), and CSV write. Everything is a no-op when
	// tracing is off; -progress, -metrics-out, and -debug-addr need the
	// live tracer, so they imply it.
	tracing := *trace || *traceJSON || *debugAddr != "" || *progress || *metricsOut != ""
	var tr *obs.Tracer
	var root *obs.Span
	if tracing {
		tr = obs.New()
		root = tr.Start("kanon")
	}
	if *debugAddr != "" {
		if _, err := obs.StartDebugServer(*debugAddr, func() *obs.Snapshot { return tr.Snapshot() }); err != nil {
			return err
		}
	}
	// At Debug, -log also prints the facade's phase_done line per span.
	var logger *slog.Logger
	if *logEvents {
		logger = slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = startProgressTicker(stderr, tr)
	}
	defer stopProgress()

	in := stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	ls := root.Start("load-csv")
	header, rows, err := relation.ReadCSVRows(in)
	ls.End()
	if err != nil {
		return err
	}

	if *verify {
		ok, err := kanon.Verify(header, rows, *k)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("input is NOT %d-anonymous", *k)
		}
		fmt.Fprintf(stderr, "input is %d-anonymous (%d suppressed entries)\n", *k, kanon.Cost(rows))
		return nil
	}

	weights, err := parseWeights(*weightsArg, len(header))
	if err != nil {
		return err
	}

	// Both paths open their "anonymize" span under the root, so the
	// debug server and the progress ticker observe the run live rather
	// than after the fact.
	var res *kanon.Result
	if *block > 0 {
		res, _, err = kanon.AnonymizeBlocks(ctx, header, rows, *k, *block, &kanon.Options{
			Algorithm: alg, Kernel: kern, Refine: *refine, ColumnWeights: weights,
			Workers: *workers, Span: root, Log: logger,
		}, nil)
	} else {
		res, err = kanon.AnonymizeContext(ctx, header, rows, *k, &kanon.Options{
			Algorithm: alg, Kernel: kern, Seed: *seed, Refine: *refine,
			ColumnWeights: weights, Workers: *workers, Span: root, Log: logger,
			Hierarchy: hspec, MaxSuppress: *suppress,
		})
	}
	stopProgress() // idempotent; the deferred call covers error paths
	if err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	ws := root.Start("write-csv")
	err = relation.WriteCSVRows(out, res.Header, res.Rows)
	ws.End()
	if err != nil {
		return err
	}

	if tracing {
		root.End()
		snap := tr.Snapshot()
		if *trace {
			snap.WriteTree(stderr)
		}
		if *traceJSON {
			if err := json.NewEncoder(stderr).Encode(snap); err != nil {
				return err
			}
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				return err
			}
			if err := snap.WritePrometheus(f, "kanon"); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}

	if *stats {
		rep, err := measureQuality(header, res.Rows, *k)
		if err != nil {
			return err
		}
		cells := len(rows) * len(header)
		fmt.Fprintf(stderr, "algorithm: %s\n", alg)
		fmt.Fprintf(stderr, "rows: %d, columns: %d\n", len(rows), len(header))
		if alg == kanon.AlgoHierarchy {
			fmt.Fprintf(stderr, "generalized entries: %d of %d (%.1f%%)\n",
				res.Cost, cells, 100*float64(res.Cost)/float64(cells))
			fmt.Fprintf(stderr, "NCP: %.4f, suppressed rows: %d of budget %d (optimal: %v)\n",
				res.NCP, len(res.Suppressed), *suppress, res.Optimal)
		} else {
			fmt.Fprintf(stderr, "suppressed entries: %d of %d (%.1f%%)\n",
				res.Cost, cells, 100*float64(res.Cost)/float64(cells))
		}
		fmt.Fprintf(stderr, "k-groups: %d (min size %d, discernibility %d, C_avg %.2f)\n",
			rep.Groups, rep.MinGroup, rep.Discernibility, rep.CAvg)
		fmt.Fprint(stderr, "stars per column:")
		for j, n := range rep.StarsPerColumn {
			fmt.Fprintf(stderr, " %s=%d", header[j], n)
		}
		fmt.Fprintln(stderr)
		if b := kanon.Bound(alg, *k, len(header)); b > 0 {
			fmt.Fprintf(stderr, "proven approximation bound: %.1f×\n", b)
		}
	}
	return nil
}

// startProgressTicker renders the tracer's progress instruments as a
// carriage-return status line on w every 200ms. The returned stop
// function blanks the line and waits for the goroutine to exit; it is
// safe to call more than once.
func startProgressTicker(w io.Writer, tr *obs.Tracer) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		width := 0
		for {
			select {
			case <-stop:
				if width > 0 {
					fmt.Fprintf(w, "\r%*s\r", width, "")
				}
				return
			case <-tick.C:
				line := tr.Snapshot().ProgressLine()
				if line == "" {
					continue
				}
				// Pad to the widest line seen so shrinking text doesn't
				// leave stale characters behind.
				fmt.Fprintf(w, "\r%-*s", width, line)
				if len(line) > width {
					width = len(line)
				}
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(stop)
		<-done
	}
}

// parseWeights parses the -weights flag into one integer per column.
func parseWeights(arg string, m int) ([]int, error) {
	if arg == "" {
		return nil, nil
	}
	parts := strings.Split(arg, ",")
	if len(parts) != m {
		return nil, fmt.Errorf("-weights has %d entries for %d columns", len(parts), m)
	}
	out := make([]int, m)
	for j, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-weights entry %d: %q is not a nonnegative integer", j, p)
		}
		out[j] = w
	}
	return out, nil
}

// measureQuality builds a relation table from the anonymized rows and
// runs the quality metrics over it.
func measureQuality(header []string, rows [][]string, k int) (*quality.Report, error) {
	t := relation.NewTable(relation.NewSchema(header...))
	for _, r := range rows {
		if err := t.AppendStrings(r...); err != nil {
			return nil, err
		}
	}
	return quality.Measure(t, k)
}
