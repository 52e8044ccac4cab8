package generalize

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/relation"
)

func TestHierarchyBasics(t *testing.T) {
	h := NewHierarchy("*")
	h.MustAdd("20-40", "*")
	h.MustAdd("22", "20-40")
	h.MustAdd("36", "20-40")
	if h.Root() != "*" {
		t.Errorf("Root = %q", h.Root())
	}
	if got := h.Level("22"); got != 2 {
		t.Errorf("Level(22) = %d, want 2", got)
	}
	if got := h.Level("*"); got != 0 {
		t.Errorf("Level(*) = %d, want 0", got)
	}
	lca, ca, cb := h.LCA("22", "36")
	if lca != "20-40" || ca != 1 || cb != 1 {
		t.Errorf("LCA(22,36) = (%q,%d,%d)", lca, ca, cb)
	}
	lca, _, _ = h.LCA("22", "unseen")
	if lca != "*" {
		t.Errorf("LCA with unknown label = %q, want root", lca)
	}
	if got := h.LCAAll([]string{"22", "36", "22"}); got != "20-40" {
		t.Errorf("LCAAll = %q", got)
	}
	if got := h.LCAAll(nil); got != "*" {
		t.Errorf("LCAAll(nil) = %q, want root", got)
	}
	climb, err := h.Climb("22", "*")
	if err != nil || climb != 2 {
		t.Errorf("Climb(22,*) = (%d,%v)", climb, err)
	}
	if _, err := h.Climb("22", "36"); err == nil {
		t.Error("Climb accepted a non-ancestor")
	}
}

func TestHierarchyAddErrors(t *testing.T) {
	h := NewHierarchy("*")
	h.MustAdd("a", "*")
	if err := h.Add("a", "b"); err == nil {
		t.Error("accepted conflicting parent")
	}
	if err := h.Add("a", "*"); err != nil {
		t.Errorf("idempotent re-add rejected: %v", err)
	}
	if err := h.Add("*", "a"); err == nil {
		t.Error("accepted parent for root")
	}
	h.MustAdd("b", "a")
	if err := h.Add("a", "b"); err == nil {
		t.Error("accepted parent cycle")
	}
}

func TestSuppressionHierarchy(t *testing.T) {
	h := Suppression()
	lca, ca, cb := h.LCA("x", "y")
	if lca != relation.StarString || ca != 1 || cb != 1 {
		t.Errorf("LCA(x,y) = (%q,%d,%d), want (*,1,1)", lca, ca, cb)
	}
	lca, ca, cb = h.LCA("x", "x")
	if lca != "x" || ca != 0 || cb != 0 {
		t.Errorf("LCA(x,x) = (%q,%d,%d), want (x,0,0)", lca, ca, cb)
	}
}

// TestDistanceIsMetric: the scheme-induced dissimilarity obeys the
// triangle inequality (it is a sum of tree metrics).
func TestDistanceIsMetric(t *testing.T) {
	h := NewHierarchy("*")
	h.MustAdd("lo", "*")
	h.MustAdd("hi", "*")
	for _, v := range []string{"1", "2", "3"} {
		h.MustAdd(v, "lo")
	}
	for _, v := range []string{"7", "8", "9"} {
		h.MustAdd(v, "hi")
	}
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
		s := Scheme{h, h}
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

// hospital reproduces the paper's §1 relation and hierarchies.
func hospital() (*relation.Table, Scheme) {
	tab := relation.NewTable(relation.NewSchema("first", "last", "age", "race"))
	for _, r := range [][]string{
		{"Harry", "Stone", "34", "Afr-Am"},
		{"John", "Reyser", "36", "Cauc"},
		{"Beatrice", "Stone", "47", "Afr-Am"},
		{"John", "Ramos", "22", "Hisp"},
	} {
		if err := tab.AppendStrings(r...); err != nil {
			panic(err)
		}
	}
	last := NewHierarchy("*")
	last.MustAdd("R*", "*")
	last.MustAdd("S*", "*")
	last.MustAdd("Reyser", "R*")
	last.MustAdd("Ramos", "R*")
	last.MustAdd("Stone", "S*")
	age := NewHierarchy("*")
	age.MustAdd("20-40", "*")
	age.MustAdd("40-60", "*")
	age.MustAdd("22", "20-40")
	age.MustAdd("34", "20-40")
	age.MustAdd("36", "20-40")
	age.MustAdd("47", "40-60")
	return tab, Scheme{Suppression(), last, age, Suppression()}
}

// TestHospitalExample reproduces the paper's §1 2-anonymization: with
// groups {Harry Stone, Beatrice Stone} and {John Reyser, John Ramos},
// the output matches the printed table.
func TestHospitalExample(t *testing.T) {
	tab, scheme := hospital()
	p := &core.Partition{Groups: [][]int{{0, 2}, {1, 3}}}
	r, err := Apply(tab, p, scheme, 2)
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
	tab, scheme := hospital()
	r, err := AnonymizeCtx(context.Background(), tab, 2, scheme, 1)
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
	tab, scheme := hospital()
	bad := &core.Partition{Groups: [][]int{{0}, {1, 2, 3}}}
	if _, err := Apply(tab, bad, scheme, 2); err == nil {
		t.Error("accepted undersized group")
	}
	short := Scheme{Suppression()}
	good := &core.Partition{Groups: [][]int{{0, 2}, {1, 3}}}
	if _, err := Apply(tab, good, short, 2); err == nil {
		t.Error("accepted wrong-length scheme")
	}
}

func TestAnonymizeErrors(t *testing.T) {
	tab, scheme := hospital()
	if _, err := AnonymizeCtx(context.Background(), tab, 0, scheme, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := AnonymizeCtx(context.Background(), tab, 9, scheme, 1); err == nil {
		t.Error("accepted n < k")
	}
	if _, err := AnonymizeCtx(context.Background(), tab, 2, scheme[:2], 1); err == nil {
		t.Error("accepted wrong-length scheme")
	}
}

func TestAnonymizeK1(t *testing.T) {
	tab, scheme := hospital()
	r, err := AnonymizeCtx(context.Background(), tab, 1, scheme, 1)
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

// TestSuppressionSchemeMatchesSuppressionCost: under all-suppression
// hierarchies, Apply's cost equals exactly the partition suppressor's
// star count (the models coincide).
func TestSuppressionSchemeMatchesSuppressionCost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		tab := dataset.Uniform(rng, 10, 4, 3)
		p := &core.Partition{Groups: [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}}}
		r, err := Apply(tab, p, ForTable(tab), 2)
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
	h := NewHierarchy("*")
	for g := 0; g < 3; g++ {
		mid := "g" + string(rune('A'+g))
		h.MustAdd(mid, "*")
		for v := 0; v < 4; v++ {
			h.MustAdd(string(rune('a'+g*4+v)), mid)
		}
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
	r, err := AnonymizeCtx(context.Background(), tab, 3, Scheme{h, h, h}, 1)
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
