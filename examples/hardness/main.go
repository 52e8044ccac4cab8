// Hardness: walks through the paper's Theorem 3.1 reduction end to end.
// It builds a 3-Dimensional Matching instance, reduces it to an optimal
// 3-anonymity instance, solves both sides exactly, and extracts the
// matching back out of the optimal anonymization — the constructive
// content of the NP-hardness proof.
//
//	go run ./examples/hardness
package main

import (
	"context"
	"fmt"
	"log"

	"kanon/internal/exact"
	"kanon/internal/hypergraph"
	"kanon/internal/reduction"
)

func main() {
	// A 3-uniform hypergraph on 9 vertices: a hidden matching
	// {0,1,2},{3,4,5},{6,7,8} among overlapping distractors.
	g := hypergraph.New(9, 3)
	for _, e := range [][]int{
		{0, 4, 8}, {0, 1, 2}, {1, 5, 6}, {3, 4, 5}, {2, 3, 7}, {6, 7, 8}, {0, 5, 7},
	} {
		g.MustAddEdge(e[0], e[1], e[2])
	}
	fmt.Printf("3-DM instance: %d vertices, %d hyperedges\n", g.N, g.M())

	inst, err := reduction.FromMatchingEntry(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreduced k-anonymity instance (%d rows × %d columns, alphabet {0..%d}):\n\n",
		inst.Table.Len(), inst.Table.Degree(), g.N)
	fmt.Println(inst.Table.String())
	fmt.Printf("Theorem 3.1: OPT ≤ n(m−1) = %d  ⇔  the hypergraph has a perfect matching\n\n", inst.Threshold)

	// Side A: the matching solver.
	matching := g.PerfectMatching()
	fmt.Printf("matching solver: perfect matching = %v (edges %v)\n", matching != nil, matching)

	// Side B: the anonymity solver.
	r, err := exact.SolveCtx(context.Background(), inst.Table, 3, exact.Stars, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anonymity solver: OPT = %d (threshold %d) → matching exists: %v\n",
		r.Value, inst.Threshold, r.Value <= inst.Threshold)

	// Extract the witness from the anonymization.
	back, err := inst.MatchingFromPartition(r.Partition)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matching extracted from the optimal anonymization: edges %v\n", back)
	for _, ej := range back {
		fmt.Printf("  e%d = %v\n", ej, g.Edges[ej])
	}
	fmt.Println("\nanonymized release (each row keeps exactly its matching edge's column):")
	sup, err := inst.SuppressorFromMatching(back)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sup.Apply(inst.Table).String())
}
