// Package kanon is a from-scratch reproduction of Meyerson & Williams,
// "On the Complexity of Optimal K-Anonymity" (PODS 2004): optimal
// k-anonymization of relations by entry suppression, its NP-hardness
// apparatus, and the paper's greedy approximation algorithms.
//
// The package is the stable public facade. It accepts plain string
// tables (a header plus rows), runs a selectable algorithm, and returns
// the k-anonymized rows with suppressed entries replaced by "*":
//
//	res, err := kanon.Anonymize(header, rows, 3, nil)
//
// Algorithms:
//
//   - AlgoGreedyBall (default): the strongly polynomial 6k(1+ln m)
//     approximation of Theorem 4.2. Scales to thousands of rows.
//   - AlgoGreedyExhaustive: the 3k(1+ln k) approximation of Theorem 4.1.
//     Enumerates all O(n^{2k−1}) candidate groups; small n only.
//   - AlgoPattern: projection-pattern set cover (exact candidate costs;
//     exponential in the number of columns, m ≤ 20).
//   - AlgoExact: provably optimal via bitmask DP; n ≤ 24.
//   - AlgoKMember, AlgoMondrian, AlgoSorted, AlgoRandom: baseline
//     heuristics used by the benchmark suite.
//
// Everything below the facade lives in internal/ packages — the §2
// problem definitions (internal/core), the greedy cover machinery
// (internal/cover), exact solvers (internal/exact), the §3 hardness
// reductions (internal/reduction, internal/hypergraph), baselines,
// workload generators, and the generalization-hierarchy extension.
// See DESIGN.md for the full inventory and EXPERIMENTS.md for the
// reproduction results.
package kanon

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"kanon/internal/core"
	"kanon/internal/exact"
	"kanon/internal/hierarchy"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/refine"
	"kanon/internal/relation"
	"kanon/internal/solver"
	"kanon/internal/stream"

	// The solver families register themselves with internal/solver at
	// init; the facade dispatches by name and never links them directly.
	_ "kanon/internal/algo"
	_ "kanon/internal/baseline"
	_ "kanon/internal/pattern"
)

// Stats is a structured trace of one Anonymize call: a tree of phase
// spans (wall time per phase, monotonic clock) plus named counters and
// gauges from the instrumented hot paths. It serializes to stable JSON
// via encoding/json and renders as a phase tree via WriteTree. Collected
// only when Options.Trace is set; collection never changes the
// anonymization result.
type Stats = obs.Snapshot

// Star is the string that replaces suppressed entries in results.
const Star = relation.StarString

// Algorithm selects the anonymization strategy.
type Algorithm int

const (
	// AlgoGreedyBall is Theorem 4.2's strongly polynomial greedy.
	AlgoGreedyBall Algorithm = iota
	// AlgoGreedyExhaustive is Theorem 4.1's greedy over all small subsets.
	AlgoGreedyExhaustive
	// AlgoPattern is the projection-pattern cover for low-degree tables.
	AlgoPattern
	// AlgoExact is the optimal bitmask DP (n ≤ 24).
	AlgoExact
	// AlgoKMember is the greedy clustering baseline.
	AlgoKMember
	// AlgoMondrian is the median-split partitioning baseline.
	AlgoMondrian
	// AlgoSorted is the lexicographic-chunks baseline.
	AlgoSorted
	// AlgoRandom is the shuffled-chunks baseline.
	AlgoRandom
	// AlgoHierarchy is full-domain generalization: every column is
	// coarsened uniformly to one level of a per-attribute hierarchy
	// (Options.Hierarchy, or one derived from the data), searching the
	// generalization lattice for the minimum-NCP k-anonymous cut with
	// up to Options.MaxSuppress rows suppressed as outliers.
	AlgoHierarchy
)

// algorithms lists every Algorithm enum value, in declaration order.
func algorithms() []Algorithm {
	return []Algorithm{
		AlgoGreedyBall, AlgoGreedyExhaustive, AlgoPattern, AlgoExact,
		AlgoKMember, AlgoMondrian, AlgoSorted, AlgoRandom, AlgoHierarchy,
	}
}

// String returns the algorithm's short name (as accepted by the CLI).
func (a Algorithm) String() string {
	switch a {
	case AlgoGreedyBall:
		return "ball"
	case AlgoGreedyExhaustive:
		return "exhaustive"
	case AlgoPattern:
		return "pattern"
	case AlgoExact:
		return "exact"
	case AlgoKMember:
		return "kmember"
	case AlgoMondrian:
		return "mondrian"
	case AlgoSorted:
		return "sorted"
	case AlgoRandom:
		return "random"
	case AlgoHierarchy:
		return "hierarchy"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a short name back to an Algorithm. The error for
// an unknown name lists every registered solver.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range algorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("kanon: %w", solver.ErrUnknown(name))
}

// AlgorithmNames returns every registered solver name, sorted — the
// single source of truth for CLI usage strings and API error messages.
func AlgorithmNames() []string {
	return solver.Names()
}

// Kernel selects the distance-kernel backend of the metric-driven
// algorithms. Every backend returns identical distances, so the
// anonymized output is byte-identical across kernels — the choice only
// trades time against memory.
type Kernel int

const (
	// KernelAuto (the default) picks KernelBitset for AlgoGreedyBall's
	// default cover, and so for every block of AnonymizeBlocks, at
	// every size. Elsewhere (AlgoGreedyExhaustive, and AlgoGreedyBall
	// with TrueDiameterWeights, which look distances up pair by pair)
	// it picks KernelDense for small tables and KernelBitset above the
	// internal size threshold.
	KernelAuto Kernel = iota
	// KernelDense precomputes the O(n²) distance matrix: fastest
	// lookups, quadratic memory.
	KernelDense
	// KernelBitset computes distances on the fly from bit-packed rows
	// via popcount: O(n·m/64) memory, scales to hundreds of thousands
	// of rows.
	KernelBitset
)

// String returns the kernel's short name (as accepted by the CLI).
func (k Kernel) String() string { return k.choice().String() }

// ParseKernel maps a short name ("auto", "dense", "bitset") back to a
// Kernel.
func ParseKernel(name string) (Kernel, error) {
	c, err := metric.ParseChoice(name)
	if err != nil {
		return 0, fmt.Errorf("kanon: unknown kernel %q", name)
	}
	switch c {
	case metric.Dense:
		return KernelDense, nil
	case metric.Bitset:
		return KernelBitset, nil
	}
	return KernelAuto, nil
}

// choice maps the public enum to the internal metric choice.
func (k Kernel) choice() metric.Choice {
	switch k {
	case KernelDense:
		return metric.Dense
	case KernelBitset:
		return metric.Bitset
	}
	return metric.Auto
}

// HierarchySpec declares per-column generalization hierarchies for
// AlgoHierarchy: explicit value trees, integer intervals, or plain
// suppression, matched to the table by column name. Parse one from a
// JSON/CSV sidecar with ParseHierarchySpec.
type HierarchySpec = hierarchy.Spec

// ParseHierarchySpec decodes and validates a hierarchy sidecar: JSON
// (first non-space byte '{') or CSV records of column,leaf,levels…
func ParseHierarchySpec(b []byte) (*HierarchySpec, error) {
	return hierarchy.ParseSpec(b)
}

// Options tunes Anonymize. The zero value selects AlgoGreedyBall with
// paper-faithful settings.
type Options struct {
	// Algorithm selects the strategy; default AlgoGreedyBall.
	Algorithm Algorithm
	// Kernel selects the distance-kernel backend of the metric-driven
	// algorithms (AlgoGreedyBall, AlgoGreedyExhaustive); KernelAuto
	// (the default) picks as its doc says. Algorithms that do not
	// consult the metric ignore it, and so does AlgoGreedyBall when
	// ColumnWeights is set: the weighted metric is always a dense
	// matrix. Output is byte-identical for every kernel.
	Kernel Kernel
	// Seed feeds AlgoRandom's shuffle (ignored elsewhere).
	Seed int64
	// SplitSorted uses the similarity-aware oversize-group split in the
	// greedy algorithms instead of the paper's arbitrary split.
	SplitSorted bool
	// TrueDiameterWeights makes AlgoGreedyBall weight candidate balls
	// by exact diameter instead of the 2·radius bound; with
	// ColumnWeights set, by exact weighted diameter.
	TrueDiameterWeights bool
	// Refine post-optimizes the partition with cost-direct local search
	// (relocate/swap/dissolve moves). Never increases cost and never
	// breaks k-anonymity; any approximation guarantee of the base
	// algorithm survives. Ignored by AlgoExact, whose output cannot
	// improve, and by AlgoHierarchy, whose generalized release has no
	// partition to refine.
	Refine bool
	// ColumnWeights prices each column's suppressed entries (nil means
	// all 1, the paper's objective). Honored by AlgoGreedyBall (the
	// weighted metric drives grouping, TrueDiameterWeights included)
	// and AlgoExact (the DP minimizes the weighted objective); other
	// algorithms ignore weights but the Result still reports the
	// weighted cost.
	ColumnWeights []int
	// Workers bounds the parallelism of the greedy algorithms' hot
	// paths (distance matrix fill, ball-family construction) and the
	// hierarchy lattice search: 0 means all CPUs, 1 forces the
	// sequential path. Output is identical for every worker count;
	// other algorithms ignore it.
	Workers int
	// Hierarchy declares the generalization hierarchies AlgoHierarchy
	// searches over; nil derives a spec from the data (intervals for
	// integer columns, balanced value trees otherwise). Setting it with
	// any other algorithm is an error.
	Hierarchy *HierarchySpec
	// MaxSuppress is AlgoHierarchy's row-suppression budget: up to this
	// many outlier rows may be released fully starred instead of
	// forcing every column to a coarser level. Setting it with any
	// other algorithm is an error.
	MaxSuppress int
	// Trace collects phase timings and counters into Result.Stats.
	// Off (the default) the instrumentation costs one nil check per
	// phase; on, the anonymized output is byte-identical — tracing
	// observes the run, it never steers it.
	Trace bool
	// Span opens this call's "anonymize" span under an external parent
	// instead of on an internal tracer, so long-lived callers (the
	// CLI's debug server, the progress ticker) observe the run live.
	// Takes precedence over Trace; Result.Stats stays nil — the
	// external tracer owns the data. Same contract as Trace: the output
	// is byte-identical with or without it.
	Span *obs.Span
	// Log emits structured run events through the given logger —
	// typically a JSON handler — with a fresh run ID attached to every
	// record: run_start, then run_done or run_error at Info, one
	// phase_done per span end of the call at Debug, and anomalies at
	// Warn. Nil (the default) is silent; logging never changes results.
	Log *slog.Logger
}

// Result is an anonymization outcome.
type Result struct {
	// K is the anonymity parameter the output satisfies.
	K int
	// Header is the input header, unchanged.
	Header []string
	// Rows holds the anonymized table in input row order; suppressed
	// entries are Star.
	Rows [][]string
	// Groups lists the k-groups as input row indices; rows in the same
	// group are textually identical in Rows.
	Groups [][]int
	// Cost is the number of entries this call newly suppressed (the
	// paper's objective). Entries already suppressed in the input do
	// not count, so Cost(result.Rows) = result.Cost + Cost(input rows).
	// For AlgoHierarchy it counts every released cell that differs from
	// the input — generalized or suppressed.
	Cost int
	// WeightedCost is Σ over newly suppressed (or, for AlgoHierarchy,
	// changed) entries of the column's weight; equals Cost when
	// ColumnWeights is nil.
	WeightedCost int
	// NCP is the release's normalized certainty penalty in [0,1] —
	// AlgoHierarchy's utility objective. 0 for suppression algorithms.
	NCP float64
	// Suppressed lists the rows AlgoHierarchy released fully starred as
	// outliers, ascending; nil for suppression algorithms.
	Suppressed []int
	// Optimal is true for AlgoExact, and for AlgoHierarchy when the
	// generalization lattice was small enough to enumerate exhaustively
	// (the cut is then the provably minimum-NCP k-anonymous one).
	Optimal bool
	// Stats holds the phase-span tree and counters of this call; nil
	// unless Options.Trace was set.
	Stats *Stats
}

// Anonymize k-anonymizes the given table by entry suppression.
// The header names the columns; every row must have the same length.
func Anonymize(header []string, rows [][]string, k int, opts *Options) (*Result, error) {
	return AnonymizeContext(context.Background(), header, rows, k, opts)
}

// AnonymizeContext is Anonymize with cancellation: the context bounds
// the run. Optimal k-anonymity is NP-hard (even approximating it is
// expensive), so individual calls can be arbitrarily slow; long-lived
// callers — servers, batch drivers — should always pass a context with
// a deadline or cancel hook. The hot phases of every algorithm (family
// construction, greedy cover rounds, the exact solver's DP states, the
// streaming pipeline's blocks) poll the context and abort promptly; a
// cancelled call returns an error wrapping ctx.Err(), so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) discriminate cancellation from input
// errors. Cancellation never corrupts state and never changes the
// result of a run that completes.
func AnonymizeContext(ctx context.Context, header []string, rows [][]string, k int, opts *Options) (res *Result, err error) {
	if opts == nil {
		opts = &Options{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	root, finish := startRun(opts, len(rows), len(header), k)
	defer func() { res, err = finish(res, err) }()
	t, err := buildTable(header, rows)
	if err != nil {
		return nil, err
	}
	weights := core.Weights(opts.ColumnWeights)
	if err := weights.Validate(t.Degree()); err != nil {
		return nil, fmt.Errorf("kanon: %w", err)
	}
	if opts.Algorithm != AlgoHierarchy && (opts.Hierarchy != nil || opts.MaxSuppress != 0) {
		return nil, fmt.Errorf("kanon: hierarchy spec and suppression budget require AlgoHierarchy, not %v", opts.Algorithm)
	}
	info, ok := solver.Lookup(opts.Algorithm.String())
	if !ok {
		return nil, fmt.Errorf("kanon: %w", solver.ErrUnknown(opts.Algorithm.String()))
	}
	// The spec travels as `any` so the registry stays family-agnostic;
	// a typed nil must not masquerade as a non-nil payload.
	var hspec any
	if opts.Hierarchy != nil {
		hspec = opts.Hierarchy
	}
	sres, err := info.Run(solver.Request{
		Ctx:                 ctx,
		Table:               t,
		K:                   k,
		Seed:                opts.Seed,
		SplitSorted:         opts.SplitSorted,
		TrueDiameterWeights: opts.TrueDiameterWeights,
		Workers:             opts.Workers,
		Kernel:              opts.Kernel.choice(),
		Weights:             weights,
		MaxSuppress:         opts.MaxSuppress,
		Hierarchy:           hspec,
		Trace:               root,
	})
	if err != nil {
		return nil, err
	}
	if sres.Partition == nil {
		return finishDirect(t, header, k, sres, root, weights)
	}
	p, optimal := sres.Partition, sres.Optimal

	if opts.Refine && !optimal {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("kanon: %w", err)
		}
		rs := root.Start("kanon.refine")
		st, err := refine.Partition(t, p, k, &refine.Options{Ctx: ctx})
		rs.End()
		if err != nil {
			return nil, fmt.Errorf("kanon: refining: %w", err)
		}
		st.Record(rs)
	}

	ss := root.Start("kanon.suppress")
	sup := p.Suppressor(t)
	anon := sup.Apply(t)
	ss.End()
	if !anon.IsKAnonymous(k) && k > 1 {
		return nil, fmt.Errorf("kanon: internal: output not %d-anonymous", k)
	}
	out := make([][]string, anon.Len())
	for i := range out {
		out[i] = anon.Strings(i)
	}
	p.Normalize()
	cost := anon.TotalStars() - t.TotalStars()
	root.Counter("kanon.entries_suppressed").Add(int64(cost))
	root.Counter("kanon.groups").Add(int64(len(p.Groups)))
	return &Result{
		K:      k,
		Header: append([]string(nil), header...),
		Rows:   out,
		Groups: p.Groups,
		// Suppressing an already-starred entry is a no-op, so count
		// the star delta, not the suppressor's mask bits.
		Cost:         cost,
		WeightedCost: weightedDelta(t, anon, weights),
		Optimal:      optimal,
	}, nil
}

// AnonymizeBlocks is the bounded-memory block path behind the kanon
// CLI's -block flag and kanond's block jobs. It k-anonymizes the rows
// in independent blocks of at most blockRows, each with the Theorem 4.2
// greedy, and adapts the release to a Result whose groups are the
// released table's textual equivalence classes. Of opts only Kernel,
// Refine, Workers, Trace, Span and Log apply, as they do for
// AnonymizeContext; a non-ball Algorithm, ColumnWeights, Hierarchy or
// MaxSuppress is an error rather than silently ignored. The Result is
// priced like AnonymizeContext's.
//
// A non-nil ckpt makes the pass durable and resumable: each finished
// block is spooled, and blocks a prior (crashed) run finished are
// replayed rather than recomputed — byte-identically, because block
// bounds and the per-block algorithm are deterministic. The int result
// counts the replayed blocks.
func AnonymizeBlocks(ctx context.Context, header []string, rows [][]string, k, blockRows int, opts *Options, ckpt stream.Checkpoint) (res *Result, resumed int, err error) {
	if opts == nil {
		opts = &Options{}
	}
	root, finish := startRun(opts, len(rows), len(header), k)
	defer func() { res, err = finish(res, err) }()
	switch {
	case opts.Algorithm != AlgoGreedyBall:
		return nil, 0, fmt.Errorf("kanon: block streaming runs only %s, got %s", AlgoGreedyBall, opts.Algorithm)
	case len(opts.ColumnWeights) > 0 || opts.Hierarchy != nil || opts.MaxSuppress != 0:
		return nil, 0, fmt.Errorf("kanon: block streaming honors no column weights, hierarchy or suppression budget")
	}
	t, err := buildTable(header, rows)
	if err != nil {
		return nil, 0, err
	}
	sr, err := stream.Anonymize(t, k, &stream.Options{
		Ctx:        ctx,
		BlockRows:  blockRows,
		Refine:     opts.Refine,
		Workers:    opts.Workers,
		Kernel:     opts.Kernel.choice(),
		Checkpoint: ckpt,
		Trace:      root,
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([][]string, sr.Anonymized.Len())
	for i := range out {
		out[i] = sr.Anonymized.Strings(i)
	}
	groups := core.FromAnonymized(sr.Anonymized)
	groups.Normalize()
	// The blocks' costs count suppressor mask bits, which include
	// entries the input already starred; the Result counts the star
	// delta. Column weights are refused above, so WeightedCost = Cost.
	cost := sr.Anonymized.TotalStars() - t.TotalStars()
	return &Result{
		K:            k,
		Header:       append([]string(nil), header...),
		Rows:         out,
		Groups:       groups.Groups,
		Cost:         cost,
		WeightedCost: cost,
	}, sr.BlocksResumed, nil
}

// startRun opens one facade call's "anonymize" root span: under
// opts.Span when it is set, otherwise on an internal tracer when Trace
// or Log is set, and nil (disabling every instrument below it) when
// none is. With Log set the root narrates and run_start is logged now.
// The returned finish ends the root, logs run_done with the root's
// duration or run_error, and fills Result.Stats under Trace when the
// call owns its tracer.
func startRun(opts *Options, n, m, k int) (*obs.Span, func(*Result, error) (*Result, error)) {
	var ev *obs.Events
	if opts.Log != nil {
		ev = obs.NewEvents(opts.Log, obs.NewRunID())
	}
	var tr *obs.Tracer
	root := opts.Span.Start("anonymize")
	if opts.Span == nil && (opts.Trace || ev != nil) {
		tr = obs.New()
		root = tr.Start("anonymize")
	}
	root.Narrate(ev)
	ev.RunStart(opts.Algorithm.String(), n, m, k)
	return root, func(res *Result, err error) (*Result, error) {
		wall := root.End()
		if err != nil {
			ev.RunError(err)
			return nil, err
		}
		ev.RunDone(res.Cost, wall)
		if opts.Trace {
			res.Stats = tr.Snapshot() // nil under opts.Span
		}
		return res, nil
	}
}

// finishDirect packages a direct-release solver result (the hierarchy
// family): the solver rendered the rows itself, so the facade only
// verifies, prices, and wraps them. K-anonymity is checked textually
// with fully suppressed rows exempt from the size floor — an all-star
// row carries no quasi-identifier to link, and the suppression budget
// admits fewer than k of them.
func finishDirect(t *relation.Table, header []string, k int, sres *solver.Result, root *obs.Span, weights core.Weights) (*Result, error) {
	out := sres.Rows
	if len(out) != t.Len() {
		return nil, fmt.Errorf("kanon: internal: release has %d rows, input %d", len(out), t.Len())
	}
	class := make(map[string]int, len(out))
	for _, r := range out {
		class[strings.Join(r, "\x00")]++
	}
	for i, r := range out {
		if allStars(r) {
			continue
		}
		if class[strings.Join(r, "\x00")] < k {
			return nil, fmt.Errorf("kanon: internal: released row %d in class smaller than %d", i, k)
		}
	}
	// Cost and WeightedCost price every changed cell; for a direct
	// release "changed" covers generalized labels, not just stars.
	cost, wcost := 0, 0
	for i := 0; i < t.Len(); i++ {
		orig := t.Strings(i)
		for j := range orig {
			if out[i][j] != orig[j] {
				cost++
				if weights == nil {
					wcost++
				} else {
					wcost += weights[j]
				}
			}
		}
	}
	if cost != sres.Cost {
		return nil, fmt.Errorf("kanon: internal: solver cost %d, recount %d", sres.Cost, cost)
	}
	root.Counter("kanon.cells_generalized").Add(int64(cost))
	root.Counter("kanon.groups").Add(int64(len(sres.Groups)))
	return &Result{
		K:            k,
		Header:       append([]string(nil), header...),
		Rows:         out,
		Groups:       sres.Groups,
		Cost:         cost,
		WeightedCost: wcost,
		NCP:          sres.NCP,
		Suppressed:   sres.Suppressed,
		Optimal:      sres.Optimal,
	}, nil
}

// allStars reports whether every cell of the row is suppressed.
func allStars(row []string) bool {
	for _, c := range row {
		if c != Star {
			return false
		}
	}
	return true
}

// Verify reports whether the given (possibly starred) table is
// k-anonymous: every row is textually identical to at least k−1 others.
func Verify(header []string, rows [][]string, k int) (bool, error) {
	t, err := buildTable(header, rows)
	if err != nil {
		return false, err
	}
	return t.IsKAnonymous(k), nil
}

// Cost counts the suppressed ("*") entries of a table — the paper's
// objective value of a release.
func Cost(rows [][]string) int {
	n := 0
	for _, r := range rows {
		for _, c := range r {
			if c == Star {
				n++
			}
		}
	}
	return n
}

// OptimalCost computes the exact optimum OPT(V) for small tables
// (n ≤ 24); useful for evaluating other tools' output.
func OptimalCost(header []string, rows [][]string, k int) (int, error) {
	t, err := buildTable(header, rows)
	if err != nil {
		return 0, err
	}
	return exact.OPT(t, k)
}

// Bound returns the algorithm's proven approximation guarantee for the
// given k and degree m, or 0 if the algorithm carries none. The greedy
// bounds are the paper's printed constants; see internal/core for the
// conservative variants.
func Bound(a Algorithm, k, m int) float64 {
	switch a {
	case AlgoGreedyExhaustive:
		return core.Theorem41Bound(k)
	case AlgoGreedyBall:
		return core.Theorem42Bound(k, m)
	case AlgoExact:
		return 1
	default:
		return 0
	}
}

// weightedDelta prices the entries that anon starred but t did not.
func weightedDelta(t, anon *relation.Table, w core.Weights) int {
	total := 0
	for i := 0; i < t.Len(); i++ {
		orig, a := t.Row(i), anon.Row(i)
		for j := range orig {
			if a[j] == relation.Star && orig[j] != relation.Star {
				if w == nil {
					total++
				} else {
					total += w[j]
				}
			}
		}
	}
	return total
}

// buildTable interns a header+rows table, treating "*" as a suppressed
// entry.
func buildTable(header []string, rows [][]string) (*relation.Table, error) {
	if len(header) == 0 {
		return nil, fmt.Errorf("kanon: empty header")
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("kanon: no rows")
	}
	t := relation.NewTable(relation.NewSchema(header...))
	for i, r := range rows {
		if len(r) != len(header) {
			return nil, fmt.Errorf("kanon: row %d has %d fields, want %d", i, len(r), len(header))
		}
		if err := t.AppendStrings(r...); err != nil {
			return nil, fmt.Errorf("kanon: row %d: %w", i, err)
		}
	}
	return t, nil
}
