package generalize

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/hierarchy"
	"kanon/internal/relation"
)

// compile binds spec to tab, failing the test on error.
func compile(t *testing.T, spec *hierarchy.Spec, tab *relation.Table) []*hierarchy.Column {
	t.Helper()
	cols, err := hierarchy.Compile(spec, tab)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// TestDistanceIsMetric: the hierarchy-induced dissimilarity obeys the
// triangle inequality (it is a sum of tree metrics).
func TestDistanceIsMetric(t *testing.T) {
	paths := map[string][]string{}
	for _, v := range []string{"1", "2", "3"} {
		paths[v] = []string{"lo", "*"}
	}
	for _, v := range []string{"7", "8", "9"} {
		paths[v] = []string{"hi", "*"}
	}
	spec := &hierarchy.Spec{Columns: []hierarchy.ColumnSpec{
		{Name: "a", Paths: paths},
		{Name: "b", Paths: paths},
	}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := []string{"1", "2", "3", "7", "8", "9"}
		pick := func() []string {
			return []string{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
		}
		tab := relation.NewTable(relation.NewSchema("a", "b"))
		for i := 0; i < 3; i++ {
			if err := tab.AppendStrings(pick()...); err != nil {
				return false
			}
		}
		s, err := hierarchy.Compile(spec, tab)
		if err != nil {
			return false
		}
		duv := Distance(tab, s, 0, 1)
		if duv != Distance(tab, s, 1, 0) {
			return false
		}
		if Distance(tab, s, 0, 0) != 0 {
			return false
		}
		return Distance(tab, s, 0, 2) <= duv+Distance(tab, s, 1, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHospitalExample reproduces the paper's §1 2-anonymization: with
// groups {Harry Stone, Beatrice Stone} and {John Reyser, John Ramos},
// the output matches the printed table.
func TestHospitalExample(t *testing.T) {
	tab, spec := Hospital()
	p := &core.Partition{Groups: [][]int{{0, 2}, {1, 3}}}
	r, err := Apply(tab, p, compile(t, spec, tab), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"*", "Stone", "*", "Afr-Am"},
		{"John", "R*", "20-40", "*"},
		{"*", "Stone", "*", "Afr-Am"},
		{"John", "R*", "20-40", "*"},
	}
	for i := range want {
		if strings.Join(r.Rows[i], ",") != strings.Join(want[i], ",") {
			t.Errorf("row %d = %v, want %v", i, r.Rows[i], want[i])
		}
	}
	// Cost: row pairs climb — group A: first 1+1, last 0, age… 34 and
	// 47 have LCA *, climbs 2+2; race 0 ⇒ 6. Group B: first 0, last
	// 1+1, age 1+1, race 1+1 ⇒ 6. Total 12.
	if r.Cost != 12 {
		t.Errorf("cost = %d, want 12", r.Cost)
	}
}

// TestAnonymizeFindsHospitalGrouping: the ball-greedy under the
// generalization metric should recover the paper's grouping on its own.
func TestAnonymizeFindsHospitalGrouping(t *testing.T) {
	tab, spec := Hospital()
	r, err := AnonymizeCtx(context.Background(), tab, 2, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Partition.Normalize()
	if len(r.Partition.Groups) != 2 {
		t.Fatalf("groups = %v", r.Partition.Groups)
	}
	g0 := r.Partition.Groups[0]
	if !(len(g0) == 2 && g0[0] == 0 && g0[1] == 2) {
		t.Errorf("first group = %v, want [0 2] (the Stones)", g0)
	}
	if r.Cost != 12 {
		t.Errorf("cost = %d, want 12", r.Cost)
	}
}

func TestApplyValidation(t *testing.T) {
	tab, spec := Hospital()
	cols := compile(t, spec, tab)
	bad := &core.Partition{Groups: [][]int{{0}, {1, 2, 3}}}
	if _, err := Apply(tab, bad, cols, 2); err == nil {
		t.Error("accepted undersized group")
	}
	good := &core.Partition{Groups: [][]int{{0, 2}, {1, 3}}}
	if _, err := Apply(tab, good, cols[:1], 2); err == nil {
		t.Error("accepted wrong-length column list")
	}
}

func TestAnonymizeErrors(t *testing.T) {
	tab, spec := Hospital()
	if _, err := AnonymizeCtx(context.Background(), tab, 0, spec, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := AnonymizeCtx(context.Background(), tab, 9, spec, 1); err == nil {
		t.Error("accepted n < k")
	}
	short := &hierarchy.Spec{Columns: spec.Columns[:2]}
	if _, err := AnonymizeCtx(context.Background(), tab, 2, short, 1); err == nil {
		t.Error("accepted a spec missing columns")
	}
}

func TestAnonymizeK1(t *testing.T) {
	tab, spec := Hospital()
	r, err := AnonymizeCtx(context.Background(), tab, 1, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 0 {
		t.Errorf("k=1 cost = %d, want 0", r.Cost)
	}
	if r.Rows[0][0] != "Harry" {
		t.Errorf("k=1 should leave rows untouched, got %v", r.Rows[0])
	}
}

// TestSuppressionSchemeMatchesSuppressionCost: under the all-suppress
// spec, Apply's cost equals exactly the partition suppressor's
// star count (the models coincide).
func TestSuppressionSchemeMatchesSuppressionCost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		tab := dataset.Uniform(rng, 10, 4, 3)
		p := &core.Partition{Groups: [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}}}
		r, err := Apply(tab, p, compile(t, hierarchy.SuppressionSpec(tab), tab), 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := p.Cost(tab); r.Cost != want {
			t.Fatalf("trial %d: generalize cost %d != suppression cost %d", trial, r.Cost, want)
		}
	}
}

// TestAnonymizeGeneralOutputAnonymous on random data with a mid-level
// hierarchy.
func TestAnonymizeRandomHierarchies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	paths := map[string][]string{}
	for g := 0; g < 3; g++ {
		mid := "g" + string(rune('A'+g))
		for v := 0; v < 4; v++ {
			paths[string(rune('a'+g*4+v))] = []string{mid, "*"}
		}
	}
	spec := &hierarchy.Spec{}
	for _, name := range []string{"x", "y", "z"} {
		spec.Columns = append(spec.Columns, hierarchy.ColumnSpec{Name: name, Paths: paths})
	}
	tab := relation.NewTable(relation.NewSchema("x", "y", "z"))
	for i := 0; i < 18; i++ {
		row := make([]string, 3)
		for j := range row {
			row[j] = string(rune('a' + rng.Intn(12)))
		}
		if err := tab.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	r, err := AnonymizeCtx(context.Background(), tab, 3, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !isKAnonymousRows(r.Rows, 3) {
		t.Error("output not 3-anonymous")
	}
	if r.Cost <= 0 {
		t.Error("random 18-row table should have positive generalization cost")
	}
}

// TestPreSuppressedCells: an input star costs nothing and meets other
// values at a root spelled "*"; under any other root it never meets
// them, and the group's cell stays suppressed.
func TestPreSuppressedCells(t *testing.T) {
	tab := relation.NewTable(relation.NewSchema("a", "b"))
	for _, r := range [][]string{{"x", "x"}, {"*", "*"}} {
		if err := tab.AppendStrings(r...); err != nil {
			t.Fatal(err)
		}
	}
	spec := &hierarchy.Spec{Columns: []hierarchy.ColumnSpec{
		{Name: "a", Paths: map[string][]string{"x": {"X", "*"}}},
		{Name: "b", Paths: map[string][]string{"x": {"X", "any"}}},
	}}
	cols := compile(t, spec, tab)
	r, err := Apply(tab, &core.Partition{Groups: [][]int{{0, 1}}}, cols, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.Rows {
		if strings.Join(row, ",") != "*,*" {
			t.Errorf("row %d = %v, want [* *]", i, row)
		}
	}
	if r.Cost != 4 { // row 0 climbs both columns to level 2; the stars are free
		t.Errorf("cost = %d, want 4", r.Cost)
	}
	if d := Distance(tab, cols, 0, 1); d != 8 {
		t.Errorf("distance = %d, want 8", d)
	}
}
