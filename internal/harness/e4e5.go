package harness

import (
	"context"
	"fmt"
	"math/rand"

	"kanon/internal/attribute"
	"kanon/internal/exact"
	"kanon/internal/hypergraph"
	"kanon/internal/reduction"
)

// runE4 exercises the Theorem 3.1 reduction: over random and planted
// 3-uniform hypergraphs, OPT of the reduced table equals n(m−1) exactly
// when a perfect matching exists, and exceeds it otherwise; witnesses
// round-trip in both directions.
func runE4(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Theorem 3.1: OPT(V) ≤ n(m−1) ⇔ perfect matching (k = 3)",
		Header: []string{"n", "m", "instances", "with PM", "iff holds", "witness round-trips",
			"min OPT-threshold gap (no PM)"},
		Notes: []string{
			"OPT from the exact DP; PM from the exact matching solver; construction uses the repaired v_i[j] = i filler (see DESIGN.md)",
		},
	}
	trials := 10
	if cfg.Quick {
		trials = 4
	}
	for _, shape := range []struct{ n, m int }{{6, 6}, {9, 6}, {9, 9}, {12, 8}} {
		rng := rand.New(rand.NewSource(cfg.seed() + int64(shape.n*100+shape.m)))
		withPM, iffOK, roundTrips := 0, 0, 0
		minGap := -1
		instances := 0
		for trial := 0; trial < trials; trial++ {
			var g *hypergraph.Graph
			if trial%2 == 0 {
				g = hypergraph.RandomWithPlantedMatching(rng, shape.n, 3, shape.m)
			} else {
				g = hypergraph.RandomSimple(rng, shape.n, 3, shape.m)
			}
			if g.M() == 0 {
				continue
			}
			instances++
			inst, err := reduction.FromMatchingEntry(g)
			if err != nil {
				return nil, err
			}
			opt, err := exact.SolveCtx(context.Background(), inst.Table, 3, exact.Stars, nil)
			if err != nil {
				return nil, err
			}
			matching := g.PerfectMatching()
			if matching != nil {
				withPM++
				if opt.Value == inst.Threshold {
					iffOK++
				}
				// Round trip A: matching → suppressor at threshold.
				sup, err := inst.SuppressorFromMatching(matching)
				if err == nil && sup.Stars() == inst.Threshold {
					// Round trip B: optimal partition → matching.
					if back, err := inst.MatchingFromPartition(opt.Partition); err == nil && g.IsPerfectMatching(back) {
						roundTrips++
					}
				}
			} else {
				if opt.Value > inst.Threshold {
					iffOK++
					gap := opt.Value - inst.Threshold
					if minGap == -1 || gap < minGap {
						minGap = gap
					}
				}
			}
		}
		gapStr := "-"
		if minGap >= 0 {
			gapStr = itoa(minGap)
		}
		t.AddRow(itoa(shape.n), itoa(shape.m), itoa(instances), itoa(withPM),
			fmt.Sprintf("%d/%d", iffOK, instances),
			fmt.Sprintf("%d/%d", roundTrips, withPM), gapStr)
	}
	return []*Table{t}, nil
}

// runE5 exercises the Theorem 3.2 reduction with the exact attribute
// solver as ground truth.
func runE5(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Theorem 3.2: min attributes suppressed = m − n/k ⇔ perfect matching",
		Header: []string{"k", "n", "m", "instances", "with PM", "iff holds",
			"witness round-trips"},
		Notes: []string{
			"boolean alphabet (b0, b1) = (0, 1) exactly as in the proof sketch",
		},
	}
	trials := 10
	if cfg.Quick {
		trials = 4
	}
	for _, shape := range []struct{ k, blocks, m int }{{3, 2, 6}, {3, 3, 8}, {4, 2, 7}, {4, 3, 10}} {
		n := shape.k * shape.blocks
		rng := rand.New(rand.NewSource(cfg.seed() + int64(shape.k*1000+n*10+shape.m)))
		withPM, iffOK, roundTrips := 0, 0, 0
		instances := 0
		for trial := 0; trial < trials; trial++ {
			var g *hypergraph.Graph
			if trial%2 == 0 {
				g = hypergraph.RandomWithPlantedMatching(rng, n, shape.k, shape.m)
			} else {
				g = hypergraph.RandomSimple(rng, n, shape.k, shape.m)
			}
			if g.M() == 0 {
				continue
			}
			instances++
			inst, err := reduction.FromMatchingAttribute(g)
			if err != nil {
				return nil, err
			}
			ex, err := attribute.Exact(inst.Table, shape.k)
			if err != nil {
				return nil, err
			}
			matching := g.PerfectMatching()
			if matching != nil {
				withPM++
				if len(ex.Dropped) == inst.Threshold {
					iffOK++
				}
				drop, err := inst.AttributesFromMatching(matching)
				if err == nil && attribute.IsKAnonymousProjection(inst.Table, drop, shape.k) {
					if back, err := inst.MatchingFromAttributes(drop); err == nil && g.IsPerfectMatching(back) {
						roundTrips++
					}
				}
			} else if len(ex.Dropped) > inst.Threshold {
				iffOK++
			}
		}
		t.AddRow(itoa(shape.k), itoa(n), itoa(shape.m), itoa(instances), itoa(withPM),
			fmt.Sprintf("%d/%d", iffOK, instances),
			fmt.Sprintf("%d/%d", roundTrips, withPM))
	}
	return []*Table{t}, nil
}
