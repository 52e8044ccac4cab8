package hierarchy

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kanon/internal/obs"
	"kanon/internal/relation"
)

// TestSolveEndToEnd: the released table is k-anonymous (suppressed
// rows exempt), classes match Groups, and Cost counts changed cells.
func TestSolveEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := randomTable(t, rng, 70, 3, 4, 0)
	const k, budget = 3, 2
	res, err := Solve(tab, k, &Options{MaxSuppress: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != tab.Len() {
		t.Fatalf("release has %d rows, want %d", len(res.Rows), tab.Len())
	}
	if len(res.Suppressed) > budget {
		t.Fatalf("suppressed %d rows, budget %d", len(res.Suppressed), budget)
	}
	// Textual recount.
	classes := map[string][]int{}
	for i, row := range res.Rows {
		classes[strings.Join(row, "\x00")] = append(classes[strings.Join(row, "\x00")], i)
	}
	for key, members := range classes {
		allStar := !strings.ContainsFunc(strings.ReplaceAll(key, "\x00", ""), func(r rune) bool { return r != '*' })
		if len(members) < k && !allStar {
			t.Fatalf("class %q has %d < %d members", key, len(members), k)
		}
	}
	// Cost recount.
	cost := 0
	for i := range res.Rows {
		orig := tab.Strings(i)
		for j := range orig {
			if res.Rows[i][j] != orig[j] {
				cost++
			}
		}
	}
	if cost != res.Cost {
		t.Fatalf("cost %d, recount %d", res.Cost, cost)
	}
	// Groups must partition the rows consistently with the rendering.
	seen := 0
	for _, g := range res.Groups {
		seen += len(g)
		first := strings.Join(res.Rows[g[0]], "\x00")
		for _, i := range g[1:] {
			if strings.Join(res.Rows[i], "\x00") != first {
				t.Fatalf("group %v not textually uniform", g)
			}
		}
	}
	if seen != tab.Len() {
		t.Fatalf("groups cover %d rows, want %d", seen, tab.Len())
	}
}

// TestSolveDeterministic: byte-identical output across workers 1/4 and
// trace on/off — the repo-wide determinism contract.
func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tab := randomTable(t, rng, 90, 4, 5, 0.04)
	var base *Result
	for _, workers := range []int{1, 4} {
		for _, trace := range []bool{false, true} {
			opt := &Options{MaxSuppress: 3, Workers: workers}
			var tr *obs.Tracer
			if trace {
				tr = obs.New()
				sp := tr.Start("test")
				opt.Trace = sp
			}
			res, err := Solve(tab, 3, opt)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(res.Rows, base.Rows) || !reflect.DeepEqual(res.Groups, base.Groups) ||
				res.Cost != base.Cost || res.NCP != base.NCP || !reflect.DeepEqual(res.Levels, base.Levels) {
				t.Fatalf("workers=%d trace=%v changed the release", workers, trace)
			}
			if trace && tr.Snapshot() == nil {
				t.Fatal("trace produced no snapshot")
			}
		}
	}
}

// TestSolveSpecLabels pins the released labels for a tiny hand-checked
// instance: k=2 forces city to level 1 (country) and age to width-10
// intervals.
func TestSolveSpecLabels(t *testing.T) {
	tab := tableOf(t, []string{"city", "age"}, [][]string{
		{"oslo", "33"}, {"bergen", "38"},
		{"paris", "47"}, {"paris", "45"},
	})
	spec := &Spec{Columns: []ColumnSpec{
		{Name: "city", Kind: KindTree, Paths: map[string][]string{
			"oslo": {"norway", "europe"}, "bergen": {"norway", "europe"},
			"paris": {"france", "europe"},
		}},
		{Name: "age", Kind: KindInterval, Width: 10, Min: intp(0), Max: intp(79)},
	}}
	res, err := Solve(tab, 2, &Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"norway", "30-39"}, {"norway", "30-39"},
		{"france", "40-49"}, {"france", "40-49"},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("release = %v, want %v", res.Rows, want)
	}
	if !reflect.DeepEqual(res.Levels, []int{1, 1}) {
		t.Fatalf("levels = %v, want [1 1]", res.Levels)
	}
	if !res.Optimal {
		t.Fatal("tiny lattice should be exhaustive")
	}
}

func intp(v int) *int { return &v }

// TestSolveValidation covers the argument errors.
func TestSolveValidation(t *testing.T) {
	tab := tableOf(t, []string{"a"}, [][]string{{"x"}, {"y"}})
	if _, err := Solve(tab, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Solve(tab, 3, nil); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Solve(tab, 1, &Options{MaxSuppress: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// TestSolveObservability: with a span attached, the run records the
// hierarchy phase spans (the search's descent and sweep among them),
// counters, and gauges.
func TestSolveObservability(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := randomTable(t, rng, 40, 3, 4, 0)
	tr := obs.New()
	sp := tr.Start("run")
	if _, err := Solve(tab, 2, &Options{Trace: sp}); err != nil {
		t.Fatal(err)
	}
	sp.End()
	snap := tr.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot")
	}
	var names []string
	var walkNames func(s obs.SpanSnapshot)
	walkNames = func(s obs.SpanSnapshot) {
		names = append(names, s.Name)
		for _, c := range s.Children {
			walkNames(c)
		}
	}
	for _, s := range snap.Spans {
		walkNames(s)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"hierarchy.derive", "hierarchy.columns", "hierarchy.count_tree", "hierarchy.search",
		"hierarchy.search.descent", "hierarchy.search.sweep", "hierarchy.materialize"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("span %q missing from %v", want, names)
		}
	}
	if snap.Counters["hierarchy.nodes_walked"] == 0 {
		t.Fatalf("nodes_walked counter missing: %v", snap.Counters)
	}
	if snap.Counters["hierarchy.nodes_pruned"] == 0 {
		t.Fatalf("nodes_pruned counter missing: %v", snap.Counters)
	}
	if snap.Gauges["hierarchy.count_tree_nodes"].Last == 0 {
		t.Fatalf("count_tree_nodes gauge missing: %v", snap.Gauges)
	}
	if snap.Histograms["hierarchy.walk_ns"].Count == 0 {
		t.Fatalf("walk_ns histogram missing: %v", snap.Histograms)
	}
}

// TestPreStarredRowsStayStarred: pre-suppressed cells release as "*"
// at every cut and never corrupt class formation.
func TestPreStarredRowsStayStarred(t *testing.T) {
	tab := tableOf(t, []string{"a", "b"}, [][]string{
		{"x", "1"}, {"x", "1"}, {"*", "1"}, {"*", "1"},
	})
	res, err := Solve(tab, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		if res.Rows[i][0] != relation.StarString {
			t.Fatalf("row %d starred cell released as %q", i, res.Rows[i][0])
		}
	}
}

// TestSuppressionBudgetLowersHeight: three rows pair up after one
// generalization, and a single outlier otherwise forces the root. With
// a one-row budget the outlier is suppressed instead.
func TestSuppressionBudgetLowersHeight(t *testing.T) {
	tab := tableOf(t, []string{"v"}, [][]string{{"a1"}, {"a2"}, {"a1"}, {"zz"}})
	spec := &Spec{Columns: []ColumnSpec{{Name: "v", Paths: map[string][]string{
		"a1": {"A", "*"}, "a2": {"A", "*"}, "zz": {"Z", "*"},
	}}}}
	strict, err := Solve(tab, 2, &Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strict.Levels, []int{2}) { // must climb to * to merge zz with the rest
		t.Errorf("strict levels = %v, want [2]", strict.Levels)
	}
	relaxed, err := Solve(tab, 2, &Options{Spec: spec, MaxSuppress: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(relaxed.Levels, []int{1}) {
		t.Errorf("relaxed levels = %v, want [1]", relaxed.Levels)
	}
	if !reflect.DeepEqual(relaxed.Suppressed, []int{3}) {
		t.Errorf("suppressed = %v, want [3]", relaxed.Suppressed)
	}
	for i := 0; i < 3; i++ {
		if relaxed.Rows[i][0] != "A" {
			t.Errorf("kept row %d released as %q, want A", i, relaxed.Rows[i][0])
		}
	}
}

// TestSuppressionSpec: under the all-suppress spec a uniform column
// stays raw while a distinguishing one is starred.
func TestSuppressionSpec(t *testing.T) {
	tab := tableOf(t, []string{"a", "b"}, [][]string{{"p", "1"}, {"p", "2"}})
	res, err := Solve(tab, 2, &Options{Spec: SuppressionSpec(tab)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Levels, []int{0, 1}) || res.Rows[0][0] != "p" || res.Rows[0][1] != relation.StarString {
		t.Errorf("levels %v, rows %v; want [0 1] with only column b starred", res.Levels, res.Rows)
	}
}

// TestSearchHeightZeroWhenAlreadyAnonymous: an already k-anonymous
// table stays at the bottom of the lattice under the all-suppress spec.
func TestSearchHeightZeroWhenAlreadyAnonymous(t *testing.T) {
	same := tableOf(t, []string{"a"}, [][]string{{"x"}, {"x"}, {"x"}})
	res, err := Solve(same, 3, &Options{Spec: SuppressionSpec(same)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Levels, []int{0}) {
		t.Errorf("already-anonymous levels = %v, want [0]", res.Levels)
	}
}
