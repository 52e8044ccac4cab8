package reduction

import (
	"context"
	"math/rand"
	"testing"

	"kanon/internal/attribute"
	"kanon/internal/core"
	"kanon/internal/exact"
	"kanon/internal/hypergraph"
	"kanon/internal/relation"
)

// matchedGraph returns a 3-uniform graph on 9 vertices with a planted
// perfect matching plus distractor edges.
func matchedGraph() *hypergraph.Graph {
	g := hypergraph.New(9, 3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(3, 4, 5)
	g.MustAddEdge(6, 7, 8)
	g.MustAddEdge(0, 3, 6)
	g.MustAddEdge(1, 4, 7)
	return g
}

// matchlessGraph returns a 3-uniform graph on 6 vertices with edges all
// sharing vertex 0, so no perfect matching exists.
func matchlessGraph() *hypergraph.Graph {
	g := hypergraph.New(6, 3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 3, 4)
	g.MustAddEdge(0, 4, 5)
	g.MustAddEdge(0, 2, 5)
	return g
}

func TestEntryInstanceShape(t *testing.T) {
	g := matchedGraph()
	inst, err := FromMatchingEntry(g)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Table.Len() != 9 || inst.Table.Degree() != 5 {
		t.Fatalf("table shape %dx%d, want 9x5", inst.Table.Len(), inst.Table.Degree())
	}
	if inst.Threshold != 9*4 {
		t.Errorf("threshold %d, want 36", inst.Threshold)
	}
	// Row i has 0 exactly on columns of edges containing vertex i, and
	// a private symbol elsewhere — so two rows agree on a column iff
	// both vertices are on that edge.
	for i := 0; i < 9; i++ {
		for j := 0; j < 5; j++ {
			onEdge := false
			for _, v := range g.Edges[j] {
				if v == i {
					onEdge = true
				}
			}
			val := inst.Table.Strings(i)[j]
			if onEdge && val != "0" {
				t.Errorf("row %d col %d = %q, want 0", i, j, val)
			}
			if !onEdge && val == "0" {
				t.Errorf("row %d col %d = 0 but vertex not on edge", i, j)
			}
		}
	}
	// Private fillers: distinct rows never share a non-zero value.
	for j := 0; j < 5; j++ {
		seen := map[string]int{}
		for i := 0; i < 9; i++ {
			v := inst.Table.Strings(i)[j]
			if v == "0" {
				continue
			}
			if prev, ok := seen[v]; ok {
				t.Errorf("col %d: rows %d and %d share filler %q", j, prev, i, v)
			}
			seen[v] = i
		}
	}
}

func TestEntryReductionErrors(t *testing.T) {
	empty := hypergraph.New(5, 3)
	if _, err := FromMatchingEntry(empty); err == nil {
		t.Error("accepted edgeless graph")
	}
	zero := hypergraph.New(0, 3)
	if _, err := FromMatchingEntry(zero); err == nil {
		t.Error("accepted vertexless graph")
	}
}

func TestSuppressorFromMatching(t *testing.T) {
	g := matchedGraph()
	inst, err := FromMatchingEntry(g)
	if err != nil {
		t.Fatal(err)
	}
	matching := []int{0, 1, 2}
	sup, err := inst.SuppressorFromMatching(matching)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Stars() != inst.Threshold {
		t.Errorf("stars %d, want threshold %d", sup.Stars(), inst.Threshold)
	}
	anon := sup.Apply(inst.Table)
	if !anon.IsKAnonymous(3) {
		t.Error("matching-derived suppressor not 3-anonymous")
	}
	// Non-matching input rejected.
	if _, err := inst.SuppressorFromMatching([]int{0, 3}); err == nil {
		t.Error("accepted a non-matching")
	}
}

// TestTheorem31IffHolds is experiment E4 in miniature: over random
// graphs, OPT(table) ≤ n(m−1) iff the graph has a perfect matching.
func TestTheorem31IffHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checked, withMatching := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 6 + 3*rng.Intn(2) // 6 or 9 vertices (DP-friendly)
		m := 3 + rng.Intn(6)
		var g *hypergraph.Graph
		if trial%2 == 0 {
			g = hypergraph.RandomWithPlantedMatching(rng, n, 3, m)
		} else {
			g = hypergraph.RandomSimple(rng, n, 3, m)
		}
		if g.M() == 0 {
			continue
		}
		inst, err := FromMatchingEntry(g)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.OPT(inst.Table, 3)
		if err != nil {
			t.Fatal(err)
		}
		has := g.HasPerfectMatching()
		if has {
			withMatching++
			if opt != inst.Threshold {
				t.Errorf("trial %d: matching exists but OPT %d != threshold %d", trial, opt, inst.Threshold)
			}
		} else if opt <= inst.Threshold {
			t.Errorf("trial %d: no matching but OPT %d ≤ threshold %d", trial, opt, inst.Threshold)
		}
		checked++
	}
	if checked < 20 || withMatching < 5 {
		t.Fatalf("corpus too thin: %d checked, %d with matching", checked, withMatching)
	}
}

// TestTheorem31RoundTrip: matching → suppressor → partition → matching.
func TestTheorem31RoundTrip(t *testing.T) {
	g := matchedGraph()
	inst, err := FromMatchingEntry(g)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := inst.SuppressorFromMatching([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	p := core.FromAnonymized(sup.Apply(inst.Table))
	back, err := inst.MatchingFromPartition(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0] != 0 || back[1] != 1 || back[2] != 2 {
		t.Errorf("round trip gave %v, want [0 1 2]", back)
	}
}

// TestMatchingFromOptimalPartition extracts a matching from the exact
// solver's partition, the full reverse direction of the proof.
func TestMatchingFromOptimalPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := hypergraph.RandomWithPlantedMatching(rng, 9, 3, 7)
	inst, err := FromMatchingEntry(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exact.SolveCtx(context.Background(), inst.Table, 3, exact.Stars, nil)
	if err != nil {
		t.Fatal(err)
	}
	matching, err := inst.MatchingFromPartition(r.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsPerfectMatching(matching) {
		t.Errorf("extracted %v is not a perfect matching", matching)
	}
}

func TestMatchingFromPartitionRejectsExpensive(t *testing.T) {
	g := matchlessGraph()
	inst, err := FromMatchingEntry(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exact.SolveCtx(context.Background(), inst.Table, 3, exact.Stars, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.MatchingFromPartition(r.Partition); err == nil {
		t.Error("extracted a matching from a matchless instance")
	}
}

func TestAttributeInstanceShape(t *testing.T) {
	g := matchedGraph()
	inst, err := FromMatchingAttribute(g)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Table.Len() != 9 || inst.Table.Degree() != 5 {
		t.Fatalf("shape %dx%d, want 9x5", inst.Table.Len(), inst.Table.Degree())
	}
	if inst.Threshold != 5-3 {
		t.Errorf("threshold %d, want 2", inst.Threshold)
	}
	// Boolean alphabet only.
	for j := 0; j < inst.Table.Degree(); j++ {
		if sz := inst.Table.Schema().Attribute(j).AlphabetSize(); sz > 2 {
			t.Errorf("col %d alphabet %d, want ≤ 2", j, sz)
		}
	}
	// Exactly k ones per column.
	for j := 0; j < inst.Table.Degree(); j++ {
		ones := 0
		for i := 0; i < inst.Table.Len(); i++ {
			if inst.Table.Strings(i)[j] == "1" {
				ones++
			}
		}
		if ones != 3 {
			t.Errorf("col %d has %d ones, want 3", j, ones)
		}
	}
}

func TestAttributeReductionErrors(t *testing.T) {
	empty := hypergraph.New(6, 3)
	if _, err := FromMatchingAttribute(empty); err == nil {
		t.Error("accepted edgeless graph")
	}
	odd := hypergraph.New(7, 3)
	odd.MustAddEdge(0, 1, 2)
	if _, err := FromMatchingAttribute(odd); err == nil {
		t.Error("accepted n not divisible by k")
	}
}

// TestTheorem32IffHolds is experiment E5 in miniature: minimum columns
// suppressed = m − n/k iff a perfect matching exists (and > otherwise).
func TestTheorem32IffHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	checked, withMatching := 0, 0
	for trial := 0; trial < 30; trial++ {
		k := 3 + rng.Intn(2) // 3 or 4
		blocks := 2 + rng.Intn(2)
		n := k * blocks
		m := blocks + 1 + rng.Intn(7)
		var g *hypergraph.Graph
		if trial%2 == 0 {
			g = hypergraph.RandomWithPlantedMatching(rng, n, k, m)
		} else {
			g = hypergraph.RandomSimple(rng, n, k, m)
		}
		if g.M() == 0 || g.M() > attribute.MaxExactColumns {
			continue
		}
		inst, err := FromMatchingAttribute(g)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := attribute.Exact(inst.Table, k)
		if err != nil {
			t.Fatal(err)
		}
		has := g.HasPerfectMatching()
		if has {
			withMatching++
			if len(ex.Dropped) != inst.Threshold {
				t.Errorf("trial %d: matching exists but min drop %d != threshold %d", trial, len(ex.Dropped), inst.Threshold)
			}
		} else if len(ex.Dropped) <= inst.Threshold {
			t.Errorf("trial %d: no matching but min drop %d ≤ threshold %d", trial, len(ex.Dropped), inst.Threshold)
		}
		checked++
	}
	if checked < 20 || withMatching < 5 {
		t.Fatalf("corpus too thin: %d checked, %d with matching", checked, withMatching)
	}
}

// TestTheorem32RoundTrip: matching → attribute set → matching, plus
// feasibility of the attribute set.
func TestTheorem32RoundTrip(t *testing.T) {
	g := matchedGraph()
	inst, err := FromMatchingAttribute(g)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := inst.AttributesFromMatching([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != inst.Threshold {
		t.Fatalf("dropped %v, want %d columns", drop, inst.Threshold)
	}
	if !attribute.IsKAnonymousProjection(inst.Table, drop, 3) {
		t.Error("matching-derived attribute set does not k-anonymize")
	}
	back, err := inst.MatchingFromAttributes(drop)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsPerfectMatching(back) {
		t.Errorf("round trip gave %v", back)
	}
	// Error paths.
	if _, err := inst.AttributesFromMatching([]int{0, 3}); err == nil {
		t.Error("accepted non-matching")
	}
	if _, err := inst.MatchingFromAttributes([]int{0, 1, 2, 3}); err == nil {
		t.Error("accepted over-threshold drop set")
	}
	if _, err := inst.MatchingFromAttributes([]int{99}); err == nil {
		t.Error("accepted out-of-range column")
	}
}

func TestMatchingFromAttributesRejectsNonMatching(t *testing.T) {
	g := matchedGraph()
	inst, err := FromMatchingAttribute(g)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping columns 0,1 leaves {2,3,4}: too many columns (3 > n/k
	// would be fine) but overlapping edges → not a matching.
	if _, err := inst.MatchingFromAttributes([]int{0, 1}); err == nil {
		t.Error("accepted surviving set that is not a matching")
	}
}

// printedVariantTable builds the construction exactly as printed in the
// supplied paper text — v_i[j] = 0 if u_i ∈ e_j, *1* otherwise — which
// the repair note in this package argues cannot be what the authors
// intended.
func printedVariantTable(g *hypergraph.Graph) *relation.Table {
	vecs := make([][]int, g.N)
	for i := range vecs {
		row := make([]int, g.M())
		for j := range row {
			row[j] = 1
		}
		vecs[i] = row
	}
	for ej, e := range g.Edges {
		for _, v := range e {
			vecs[v][ej] = 0
		}
	}
	return relation.MustFromVectors(vecs)
}

// TestPrintedVariantBreaksIff documents the OCR repair: under the
// printed "1 otherwise" construction, Theorem 3.1's iff fails on
// concrete instances (rows collide on shared 1-entries, so cheap
// anonymizations exist without a perfect matching), while the repaired
// private-filler construction used by FromMatchingEntry satisfies the
// iff on the same corpus (TestTheorem31IffHolds).
func TestPrintedVariantBreaksIff(t *testing.T) {
	violations := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := hypergraph.RandomSimple(rng, 9, 3, 6)
		if g.M() == 0 {
			continue
		}
		tab := printedVariantTable(g)
		opt, err := exact.OPT(tab, 3)
		if err != nil {
			t.Fatal(err)
		}
		threshold := g.N * (g.M() - 1)
		if (opt <= threshold) != g.HasPerfectMatching() {
			violations++
		}
	}
	if violations == 0 {
		t.Error("printed construction satisfied the iff on all 30 instances; the repair note would be unjustified")
	}
	t.Logf("printed-variant iff violations: %d/30", violations)
}
