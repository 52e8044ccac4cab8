package harness

import (
	"math/rand"

	"kanon/internal/algo"
	"kanon/internal/attribute"
	"kanon/internal/dataset"
	"kanon/internal/hierarchy"
	"kanon/internal/refine"
)

// runE12 relates the three granularities of k-anonymization the paper
// touches: cell-level suppression (the paper's model, §2–§4),
// whole-attribute suppression (§3.1), and full-domain generalization
// (Samarati/Sweeney [10], the §1 setting). With two-level hierarchies,
// full-domain generalization and attribute suppression are the same
// problem — the table cross-checks that the two independent solvers
// agree exactly — and cell-level suppression is the strict refinement,
// never more expensive and usually far cheaper.
func runE12(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Granularity: cell suppression vs attribute suppression vs full-domain lattice",
		Header: []string{"workload", "n", "m", "k", "cell (ball+refine)", "attribute exact",
			"lattice (2-level)", "attr = lattice", "cell ≤ attribute"},
		Notes: []string{
			"all costs in suppressed entries; attribute cost = dropped columns × n; lattice cost = height × n under suppression-only hierarchies",
			"the attribute solver (subset enumeration) and internal/hierarchy's lattice search (OLA, minimum NCP) are independent implementations of the same optimum",
		},
	}
	shapes := []struct{ n, m int }{{40, 6}, {80, 8}}
	trials := 6
	if cfg.Quick {
		shapes = []struct{ n, m int }{{30, 5}}
		trials = 3
	}
	for _, workload := range []string{"census", "zipf"} {
		for _, shape := range shapes {
			for _, k := range []int{2, 4} {
				rng := rand.New(rand.NewSource(cfg.seed() + int64(shape.n*10+k)))
				sumCell, sumAttr, sumLat := 0, 0, 0
				agree, cheaper := 0, 0
				for trial := 0; trial < trials; trial++ {
					var tab = dataset.Census(rng, shape.n, shape.m)
					if workload == "zipf" {
						tab = dataset.Zipf(rng, shape.n, shape.m, 8, 1.6)
					}

					cell, err := algo.GreedyBall(tab, k, nil)
					if err != nil {
						return nil, err
					}
					if _, err := refine.Partition(tab, cell.Partition, k, nil); err != nil {
						return nil, err
					}
					cellCost := cell.Partition.Cost(tab)

					attr, err := attribute.Exact(tab, k)
					if err != nil {
						return nil, err
					}
					attrCost := len(attr.Dropped) * tab.Len()

					lat, err := hierarchy.Solve(tab, k, &hierarchy.Options{Spec: hierarchy.SuppressionSpec(tab)})
					if err != nil {
						return nil, err
					}
					height := 0
					for _, l := range lat.Levels {
						height += l
					}
					latCost := height * tab.Len()

					sumCell += cellCost
					sumAttr += attrCost
					sumLat += latCost
					if attrCost == latCost {
						agree++
					}
					if cellCost <= attrCost {
						cheaper++
					}
				}
				t.AddRow(workload, itoa(shape.n), itoa(shape.m), itoa(k),
					itoa(sumCell), itoa(sumAttr), itoa(sumLat),
					frac(agree, trials), frac(cheaper, trials))
			}
		}
	}
	return []*Table{t}, nil
}
