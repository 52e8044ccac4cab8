// Command kanon-hardgen emits hard k-anonymity instances via the
// paper's §3 reductions and demonstrates the witness round trip.
//
// Usage:
//
//	kanon-hardgen -n 9 -m 7 -k 3 [-planted] [-variant entry|attribute] [-seed 1]
//
// It generates a k-uniform hypergraph, reduces it to a k-anonymity
// instance, prints the instance as CSV on stdout and, on stderr, the
// threshold, whether a perfect matching exists, and the round-tripped
// witness when it does.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"kanon/internal/attribute"
	"kanon/internal/exact"
	"kanon/internal/hypergraph"
	"kanon/internal/obs"
	"kanon/internal/reduction"
	"kanon/internal/relation"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kanon-hardgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kanon-hardgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 9, "hypergraph vertices (rows of the instance)")
	m := fs.Int("m", 7, "hyperedges (columns of the instance)")
	k := fs.Int("k", 3, "hyperedge arity = anonymity parameter")
	seed := fs.Int64("seed", 1, "generator seed")
	planted := fs.Bool("planted", false, "plant a perfect matching")
	variant := fs.String("variant", "entry", "reduction variant: entry (Thm 3.1) or attribute (Thm 3.2)")
	solve := fs.Bool("solve", false, "additionally run the exact solver and report OPT vs threshold (small instances)")
	version := fs.Bool("version", false, "print build provenance and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, obs.ReadBuild().String())
		return nil
	}
	if *n%*k != 0 {
		return fmt.Errorf("n = %d must be divisible by k = %d for a perfect matching to be possible", *n, *k)
	}

	rng := rand.New(rand.NewSource(*seed))
	var g *hypergraph.Graph
	if *planted {
		g = hypergraph.RandomWithPlantedMatching(rng, *n, *k, *m)
	} else {
		g = hypergraph.RandomSimple(rng, *n, *k, *m)
	}
	if g.M() == 0 {
		return fmt.Errorf("generated graph has no edges; increase -m")
	}
	fmt.Fprintf(stderr, "hypergraph: %d vertices, %d edges, %d-uniform\n", g.N, g.M(), g.K)

	matching := g.PerfectMatching()
	fmt.Fprintf(stderr, "perfect matching: %v\n", matching != nil)

	switch *variant {
	case "entry":
		inst, err := reduction.FromMatchingEntry(g)
		if err != nil {
			return err
		}
		if err := writeTable(stdout, inst.Table); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "entry-suppression threshold: OPT ≤ %d iff matching exists\n", inst.Threshold)
		if matching != nil {
			sup, err := inst.SuppressorFromMatching(matching)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "witness suppressor stars: %d (= threshold: %v)\n", sup.Stars(), sup.Stars() == inst.Threshold)
		}
		if *solve {
			if inst.Table.Len() > exact.MaxDPRows {
				return fmt.Errorf("-solve needs n ≤ %d", exact.MaxDPRows)
			}
			r, err := exact.SolveCtx(context.Background(), inst.Table, inst.K, exact.Stars, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "exact OPT: %d (threshold %d) → matching exists: %v\n",
				r.Value, inst.Threshold, r.Value <= inst.Threshold)
			if r.Value <= inst.Threshold {
				back, err := inst.MatchingFromPartition(r.Partition)
				if err != nil {
					return err
				}
				fmt.Fprintf(stderr, "extracted matching (edge indices): %v\n", back)
			}
		}
	case "attribute":
		inst, err := reduction.FromMatchingAttribute(g)
		if err != nil {
			return err
		}
		if err := writeTable(stdout, inst.Table); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "attribute-suppression threshold: min drop = %d iff matching exists\n", inst.Threshold)
		if *solve {
			r, err := attribute.Exact(inst.Table, inst.K)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "exact minimum columns dropped: %d (threshold %d) → matching exists: %v\n",
				len(r.Dropped), inst.Threshold, len(r.Dropped) <= inst.Threshold)
		}
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	return nil
}

func writeTable(w io.Writer, t *relation.Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	for i := 0; i < t.Len(); i++ {
		if err := cw.Write(t.Strings(i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
