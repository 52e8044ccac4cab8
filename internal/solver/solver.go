// Package solver is the registry every anonymization family plugs
// into: a name → solver map shared by the public facade, the kanond
// job server, kanon-bench, and the fuzzers. Each family package
// (internal/algo, internal/pattern, internal/exact, internal/baseline,
// internal/hierarchy) registers its solvers from an init function, so
// adding a family is a leaf change — one Register call — instead of a
// switch-statement edit in every binary.
//
// A solver consumes a Request (the table, k, and the cross-family
// knobs) and produces either a partition of row indices — the
// suppression families, whose groups the facade suppresses to
// uniformity — or a directly rendered release (the hierarchy family,
// whose output labels live outside the input alphabet).
package solver

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"kanon/internal/core"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/relation"
)

// Request carries one anonymization call's inputs across the registry
// boundary. Families read the knobs they understand and ignore the
// rest; every field beyond Table and K has a usable zero value.
type Request struct {
	// Ctx bounds the run; nil means context.Background().
	Ctx context.Context
	// Table is the input relation.
	Table *relation.Table
	// K is the anonymity parameter.
	K int
	// Seed feeds the randomized baselines' shuffles.
	Seed int64
	// SplitSorted selects the similarity-aware oversize-group split in
	// the greedy families.
	SplitSorted bool
	// TrueDiameterWeights makes the ball family weight candidates by
	// exact diameter instead of the 2·radius bound.
	TrueDiameterWeights bool
	// Workers bounds the parallel hot paths (0 = all CPUs).
	Workers int
	// Kernel selects the distance-kernel backend of the metric-driven
	// families.
	Kernel metric.Choice
	// Weights prices each column's suppressed entries (nil = all 1).
	// Honored by the ball and exact families.
	Weights core.Weights
	// MaxSuppress is the hierarchy family's suppression budget: how
	// many outlier rows a lattice node may drop (fully suppress) and
	// still count as k-anonymous.
	MaxSuppress int
	// Hierarchy is the hierarchy family's generalization spec
	// (*hierarchy.Spec), kept opaque here so the registry does not
	// depend on the family packages it registers. Nil auto-derives a
	// spec from the table.
	Hierarchy any
	// Trace is the parent span the solver's phase spans and counters
	// attach under, and through which a narrated run logs them; nil
	// disables instrumentation.
	Trace *obs.Span
}

// Context returns the request's context, never nil.
func (r *Request) Context() context.Context {
	if r.Ctx == nil {
		return context.Background()
	}
	return r.Ctx
}

// Result is a solver outcome in one of two shapes. Suppression
// families return a Partition and leave Rows nil: the facade suppresses
// each group to uniformity and prices the stars. Direct-release
// families (hierarchy) return the rendered Rows themselves plus the
// bookkeeping the facade would otherwise compute from the partition.
type Result struct {
	// Partition groups row indices; non-nil for suppression families.
	Partition *core.Partition
	// Rows is the rendered release in input row order; non-nil for
	// direct-release families.
	Rows [][]string
	// Groups lists the release's equivalence classes (direct-release
	// families only; derived from Partition otherwise).
	Groups [][]int
	// Cost is the family's integer objective for a direct release:
	// the number of cells whose released label differs from the input
	// value (a fully suppressed row contributes its whole width).
	Cost int
	// NCP is the normalized certainty penalty of a direct release in
	// [0, 1]; 0 for suppression families.
	NCP float64
	// Suppressed lists rows released as fully suppressed outliers
	// (direct-release families only).
	Suppressed []int
	// Optimal marks provably optimal output (the exact family).
	Optimal bool
}

// Func runs one registered solver.
type Func func(req Request) (*Result, error)

// Info describes one registered solver.
type Info struct {
	// Name is the short CLI/API name ("ball", "exact", "hierarchy", …).
	Name string
	// Run executes the solver.
	Run Func
	// Optimal marks families whose output is provably optimal, so the
	// facade can skip the refine post-pass and stamp the result.
	Optimal bool
	// Description is a one-line summary for usage strings.
	Description string
}

var (
	mu       sync.RWMutex
	registry = map[string]Info{}
)

// Register adds a solver under its name. It panics on an empty name,
// a nil Run, or a duplicate registration — all programmer errors that
// should fail at init, loudly.
func Register(info Info) {
	if info.Name == "" {
		panic("solver: Register with empty name")
	}
	if info.Run == nil {
		panic("solver: Register " + info.Name + " with nil Run")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic("solver: duplicate Register " + info.Name)
	}
	registry[info.Name] = info
}

// Lookup returns the solver registered under name.
func Lookup(name string) (Info, bool) {
	mu.RLock()
	defer mu.RUnlock()
	info, ok := registry[name]
	return info, ok
}

// Names returns every registered solver name, sorted — the canonical
// list for usage strings and "unknown algorithm" errors.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ErrUnknown builds the canonical unknown-solver error, listing the
// registered names so a typo'd -algo or ?algo= tells the caller what
// would have worked.
func ErrUnknown(name string) error {
	return fmt.Errorf("unknown algorithm %q (registered: %s)", name, strings.Join(Names(), ", "))
}
