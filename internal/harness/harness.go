// Package harness implements the reproduction experiments E1–E12
// defined in DESIGN.md. Each experiment regenerates one table of
// EXPERIMENTS.md: it builds a fixed-seed instance corpus, runs the
// relevant solvers, and renders a plain-text table with the measured
// quantities next to the paper's claimed bounds.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"kanon/internal/metric"
)

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks corpora so the full suite finishes in seconds; the
	// default (false) matches the numbers recorded in EXPERIMENTS.md.
	Quick bool
	// Seed drives all instance generation; experiments derive
	// per-instance seeds from it deterministically.
	Seed int64
	// Workers bounds the parallelism of the algorithms under test
	// (0 = all CPUs, 1 = sequential). E3 and E8 additionally sweep it
	// where the comparison is the point of the experiment.
	Workers int
	// Kernel selects the distance-kernel backend for the metric-driven
	// solvers (metric.Auto sizes it to each instance). Bench cases
	// pinned to a specific backend ignore it.
	Kernel metric.Choice
}

// DefaultSeed is the corpus seed used for EXPERIMENTS.md.
const DefaultSeed = 20040614 // PODS 2004, June 14–16

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return DefaultSeed
	}
	return c.Seed
}

// EffectiveSeed resolves the zero-value default to the seed the
// experiments actually use; bench tooling records it so runs are
// self-describing.
func (c Config) EffectiveSeed() int64 { return c.seed() }

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Notes  []string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for j, h := range t.Header {
		widths[j] = len(h)
	}
	for _, r := range t.Rows {
		for j, c := range r {
			if j < len(widths) && len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for j, c := range cells {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[j]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for j := range sep {
		sep[j] = strings.Repeat("-", widths[j])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderMarkdown writes the table as a GitHub-flavored markdown table,
// for pasting into EXPERIMENTS.md.
func (t *Table) RenderMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for j := range sep {
		sep[j] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderJSON writes the table as one JSON object on a single line —
// the machine-readable form kanon-bench -json emits for trajectory
// tooling (BENCH_*.json).
func (t *Table) RenderJSON(w io.Writer) error {
	obj := struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes}
	enc := json.NewEncoder(w)
	return enc.Encode(obj)
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

// All returns the experiments in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Theorem 4.1 — exhaustive greedy vs exact OPT", runE1},
		{"E2", "Theorem 4.2 — ball greedy vs exact OPT", runE2},
		{"E3", "Runtime scaling — O(n^2k) vs strongly polynomial", runE3},
		{"E4", "Theorem 3.1 — entry-suppression hardness reduction", runE4},
		{"E5", "Theorem 3.2 — attribute-suppression hardness reduction", runE5},
		{"E6", "Lemma 4.1 — diameter-sum sandwich", runE6},
		{"E7", "Paper worked examples (§1 table, §4 example)", runE7},
		{"E8", "Baselines on realistic workloads", runE8},
		{"E9", "Figure 1 and metric properties", runE9},
		{"E10", "Ablations (split policy, weights, family, laziness)", runE10},
		{"E11", "Beyond the paper: ratio growth with k (§5 open question)", runE11},
		{"E12", "Granularity: cell vs attribute vs full-domain lattice", runE12},
		{"E13", "Beyond the paper: alphabet size as hardness dial (§5)", runE13},
		{"E14", "Beyond the paper: column-weighted suppression", runE14},
		{"E15", "Beyond the paper: hierarchy generalization vs cell suppression", runE15},
	}
	sort.Slice(exps, func(a, b int) bool { return idOrder(exps[a].ID) < idOrder(exps[b].ID) })
	return exps
}

func idOrder(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// f1, f2, f3 format floats at fixed precision for table cells.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

func itoa(x int) string { return fmt.Sprintf("%d", x) }

func dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
