package kanon

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

var (
	exampleHeader = []string{"a", "b", "c", "d"}
	exampleRows   = [][]string{
		{"1", "0", "1", "0"},
		{"1", "1", "1", "0"},
		{"0", "1", "1", "0"},
	}
)

func allAlgorithms() []Algorithm {
	return []Algorithm{
		AlgoGreedyBall, AlgoGreedyExhaustive, AlgoPattern, AlgoExact,
		AlgoKMember, AlgoMondrian, AlgoSorted, AlgoRandom,
	}
}

func TestAnonymizePaperExampleAllAlgorithms(t *testing.T) {
	for _, a := range allAlgorithms() {
		t.Run(a.String(), func(t *testing.T) {
			res, err := Anonymize(exampleHeader, exampleRows, 3, &Options{Algorithm: a})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != 6 {
				t.Errorf("cost = %d, want 6 (the §4 example has a forced single group)", res.Cost)
			}
			ok, err := Verify(res.Header, res.Rows, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Error("output fails Verify")
			}
			if Cost(res.Rows) != res.Cost {
				t.Errorf("Cost(rows) = %d, want %d", Cost(res.Rows), res.Cost)
			}
			if len(res.Groups) != 1 || len(res.Groups[0]) != 3 {
				t.Errorf("groups = %v, want one group of 3", res.Groups)
			}
			if res.Optimal != (a == AlgoExact) {
				t.Errorf("Optimal = %v for %v", res.Optimal, a)
			}
		})
	}
}

func TestAnonymizeGroupsAreTextuallyIdentical(t *testing.T) {
	header := []string{"x", "y", "z"}
	rows := [][]string{
		{"p", "q", "r"}, {"p", "q", "s"}, {"a", "b", "c"},
		{"a", "b", "d"}, {"p", "q", "t"}, {"a", "b", "e"},
	}
	res, err := Anonymize(header, rows, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		first := strings.Join(res.Rows[g[0]], "|")
		for _, i := range g[1:] {
			if got := strings.Join(res.Rows[i], "|"); got != first {
				t.Errorf("group %v not identical: %q vs %q", g, got, first)
			}
		}
		if len(g) < 3 {
			t.Errorf("group %v smaller than k", g)
		}
	}
	// This instance has two obvious clusters; cost should be 6 (one
	// starred column per cluster of 3).
	if res.Cost != 6 {
		t.Errorf("cost = %d, want 6", res.Cost)
	}
}

func TestAnonymizeInputValidation(t *testing.T) {
	if _, err := Anonymize(nil, exampleRows, 2, nil); err == nil {
		t.Error("accepted empty header")
	}
	if _, err := Anonymize(exampleHeader, nil, 2, nil); err == nil {
		t.Error("accepted no rows")
	}
	if _, err := Anonymize(exampleHeader, [][]string{{"1"}}, 1, nil); err == nil {
		t.Error("accepted ragged row")
	}
	if _, err := Anonymize(exampleHeader, exampleRows, 0, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Anonymize(exampleHeader, exampleRows, 4, nil); err == nil {
		t.Error("accepted k > n")
	}
	if _, err := Anonymize(exampleHeader, exampleRows, 2, &Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

// TestAnonymizeBlocksRefusesUnhonoredOptions: the block path runs the
// ball greedy alone, so any option it would ignore is an error, while
// naming the ball greedy explicitly changes nothing.
func TestAnonymizeBlocksRefusesUnhonoredOptions(t *testing.T) {
	ctx := context.Background()
	want, _, err := AnonymizeBlocks(ctx, exampleHeader, exampleRows, 2, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := AnonymizeBlocks(ctx, exampleHeader, exampleRows, 2, 2, &Options{Algorithm: AlgoGreedyBall}, nil)
	if err != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("explicit ball: %v, %v; want %v", got, err, want.Rows)
	}
	for name, opts := range map[string]*Options{
		"exhaustive": {Algorithm: AlgoGreedyExhaustive},
		"sorted":     {Algorithm: AlgoSorted},
		"hierarchy":  {Algorithm: AlgoHierarchy},
		"weights":    {ColumnWeights: []int{9, 1, 1, 1}},
		"spec":       {Hierarchy: &HierarchySpec{}},
		"suppress":   {MaxSuppress: 1},
	} {
		if _, _, err := AnonymizeBlocks(ctx, exampleHeader, exampleRows, 2, 2, opts, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := AnonymizeBlocks(ctx, exampleHeader, [][]string{{"1"}}, 1, 2, nil, nil); err == nil {
		t.Error("accepted ragged row")
	}
}

// TestAnonymizeBlocksKeepsResultContract: the block path prices its
// release like AnonymizeContext, as the star delta against the input
// (entries the input already starred are not newly suppressed), and
// returns Stats when Trace is set.
func TestAnonymizeBlocksKeepsResultContract(t *testing.T) {
	header := []string{"a", "b", "c"}
	rows := [][]string{
		{"1", "1", "1"},
		{"1", Star, "2"},
		{"1", "2", "1"},
		{"2", "2", "2"},
		{"2", "1", Star},
		{"2", "2", "1"},
	}
	whole, err := AnonymizeContext(context.Background(), header, rows, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := AnonymizeBlocks(context.Background(), header, rows, 3, 6, &Options{Trace: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(whole.Rows) {
		t.Fatalf("one block released %v, the whole table %v", got.Rows, whole.Rows)
	}
	if want := Cost(got.Rows) - Cost(rows); got.Cost != want || got.Cost != whole.Cost || got.WeightedCost != want {
		t.Errorf("Cost %d, WeightedCost %d; want the star delta %d (AnonymizeContext: %d)",
			got.Cost, got.WeightedCost, want, whole.Cost)
	}
	if got.Stats == nil || len(got.Stats.Spans) == 0 {
		t.Fatalf("Trace set but Stats = %+v", got.Stats)
	}
	if done := got.Stats.Counters["stream.blocks_done"]; done != 1 {
		t.Errorf("stream.blocks_done = %d, want 1", done)
	}
}

func TestVerify(t *testing.T) {
	ok, err := Verify(exampleHeader, exampleRows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("distinct rows reported 2-anonymous")
	}
	starred := [][]string{
		{"*", "*", "1", "0"}, {"*", "*", "1", "0"}, {"*", "*", "1", "0"},
	}
	ok, err = Verify(exampleHeader, starred, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("identical starred rows reported not 3-anonymous")
	}
	if _, err := Verify(nil, starred, 2); err == nil {
		t.Error("accepted empty header")
	}
}

func TestCost(t *testing.T) {
	rows := [][]string{{"*", "x"}, {"y", "*"}, {"*", "*"}}
	if got := Cost(rows); got != 4 {
		t.Errorf("Cost = %d, want 4", got)
	}
	if got := Cost(nil); got != 0 {
		t.Errorf("Cost(nil) = %d, want 0", got)
	}
}

func TestOptimalCost(t *testing.T) {
	got, err := OptimalCost(exampleHeader, exampleRows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("OptimalCost = %d, want 6", got)
	}
	if _, err := OptimalCost(nil, nil, 2); err == nil {
		t.Error("accepted empty input")
	}
}

func TestAlgorithmStringRoundTrip(t *testing.T) {
	for _, a := range allAlgorithms() {
		back, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", a.String(), err)
		}
		if back != a {
			t.Errorf("round trip %v → %q → %v", a, a.String(), back)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm accepted junk")
	}
	if got := Algorithm(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown algorithm String = %q", got)
	}
}

func TestBound(t *testing.T) {
	if got := Bound(AlgoExact, 3, 8); got != 1 {
		t.Errorf("exact bound = %v, want 1", got)
	}
	if got := Bound(AlgoSorted, 3, 8); got != 0 {
		t.Errorf("baseline bound = %v, want 0 (no guarantee)", got)
	}
	if Bound(AlgoGreedyExhaustive, 3, 8) <= 1 || Bound(AlgoGreedyBall, 3, 8) <= 1 {
		t.Error("greedy bounds should exceed 1")
	}
}

func TestAnonymizeStarInputRoundTrip(t *testing.T) {
	// Tables containing stars already (e.g. re-anonymizing a release)
	// are accepted; stars compare equal to each other.
	header := []string{"a", "b"}
	rows := [][]string{{"*", "1"}, {"*", "1"}, {"*", "2"}, {"*", "2"}}
	res, err := Anonymize(header, rows, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Errorf("cost = %d, want 0 (already 2-anonymous)", res.Cost)
	}
}

func TestAnonymizeDoesNotMutateInput(t *testing.T) {
	rows := [][]string{
		{"1", "0", "1", "0"},
		{"1", "1", "1", "0"},
		{"0", "1", "1", "0"},
	}
	if _, err := Anonymize(exampleHeader, rows, 3, nil); err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "1" || rows[2][1] != "1" {
		t.Error("Anonymize mutated its input")
	}
}

func TestAnonymizeK1NoOp(t *testing.T) {
	res, err := Anonymize(exampleHeader, exampleRows, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Errorf("k=1 cost = %d", res.Cost)
	}
	for i, r := range res.Rows {
		if strings.Join(r, ",") != strings.Join(exampleRows[i], ",") {
			t.Errorf("k=1 changed row %d", i)
		}
	}
}

func TestRefineOptionNeverWorse(t *testing.T) {
	header := []string{"a", "b", "c"}
	rows := [][]string{
		{"1", "1", "x"}, {"1", "1", "y"}, {"2", "2", "x"},
		{"2", "2", "y"}, {"1", "1", "z"}, {"2", "2", "z"},
		{"3", "3", "x"}, {"3", "3", "y"}, {"3", "3", "z"},
	}
	for _, a := range []Algorithm{AlgoGreedyBall, AlgoRandom, AlgoSorted} {
		base, err := Anonymize(header, rows, 3, &Options{Algorithm: a})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := Anonymize(header, rows, 3, &Options{Algorithm: a, Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		if refined.Cost > base.Cost {
			t.Errorf("%v: refine increased cost %d → %d", a, base.Cost, refined.Cost)
		}
		ok, err := Verify(refined.Header, refined.Rows, 3)
		if err != nil || !ok {
			t.Errorf("%v: refined output not 3-anonymous (err=%v)", a, err)
		}
	}
	// On this instance the clusters are clean: refined random chunking
	// should reach the optimum 9 (each cluster stars only column c).
	refined, err := Anonymize(header, rows, 3, &Options{Algorithm: AlgoRandom, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalCost(header, rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Cost != opt {
		t.Logf("refined random cost %d vs OPT %d (local search is not guaranteed to reach OPT)", refined.Cost, opt)
	}
}

func TestColumnWeights(t *testing.T) {
	header := []string{"a", "b"}
	rows := [][]string{
		{"1", "7"}, {"1", "8"}, {"2", "7"}, {"2", "8"},
	}
	// Column a is expensive: the release must group by a and star b.
	res, err := Anonymize(header, rows, 2, &Options{ColumnWeights: []int{100, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedCost != 4 {
		t.Errorf("weighted cost = %d, want 4", res.WeightedCost)
	}
	for i, r := range res.Rows {
		if r[0] == Star {
			t.Errorf("row %d starred the expensive column: %v", i, r)
		}
	}
	// Exact agrees under the same weights.
	ex, err := Anonymize(header, rows, 2, &Options{Algorithm: AlgoExact, ColumnWeights: []int{100, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.WeightedCost != 4 {
		t.Errorf("exact weighted cost = %d, want 4", ex.WeightedCost)
	}
	// Nil weights: WeightedCost equals Cost.
	plain, err := Anonymize(header, rows, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.WeightedCost != plain.Cost {
		t.Errorf("nil-weight WeightedCost %d != Cost %d", plain.WeightedCost, plain.Cost)
	}
	// Validation.
	if _, err := Anonymize(header, rows, 2, &Options{ColumnWeights: []int{1}}); err == nil {
		t.Error("accepted wrong-length weights")
	}
	if _, err := Anonymize(header, rows, 2, &Options{ColumnWeights: []int{1, -1}}); err == nil {
		t.Error("accepted negative weight")
	}
}
