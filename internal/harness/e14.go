package harness

import (
	"context"
	"math/rand"

	"kanon/internal/algo"
	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/exact"
)

// runE14 measures the column-weighted extension: pricing one column
// above the others should move suppression away from it, at a bounded
// premium in raw stars. Ground truth comes from the weighted exact DP
// at small n; at working sizes the weighted greedy's protected-column
// star share is compared against the unweighted run.
func runE14(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Beyond the paper: column-weighted suppression (utility-aware)",
		Header: []string{"protected col weight", "k", "trials",
			"protected stars (unweighted)", "protected stars (weighted)",
			"total stars (unweighted)", "total stars (weighted)",
			"weighted greedy/OPT_w (small n)"},
		Notes: []string{
			"census workload, n = 60, m = 6; 'protected' is the zip column (weight shown, others 1)",
			"the weighted metric is still a metric, so Theorem 4.2's machinery applies with W = Σ w_j in place of m",
		},
	}
	trials := 8
	n := 60
	if cfg.Quick {
		trials, n = 3, 40
	}
	const protected = 1 // column index of zip in the census schema
	for _, wp := range []int{2, 5, 20} {
		for _, k := range []int{3, 5} {
			rng := rand.New(rand.NewSource(cfg.seed() + int64(wp*10+k)))
			var pu, pw, tu, tw int
			worstRatio := 1.0
			for trial := 0; trial < trials; trial++ {
				tab := dataset.Census(rng, n, 6)
				w := core.UniformWeights(6)
				w[protected] = wp

				plain, err := algo.GreedyBall(tab, k, nil)
				if err != nil {
					return nil, err
				}
				weighted, err := algo.GreedyBall(tab, k, &algo.Options{Weights: w})
				if err != nil {
					return nil, err
				}
				pu += columnStars(plain, protected)
				pw += columnStars(weighted, protected)
				tu += plain.Cost
				tw += weighted.Cost

				// Small-n exact comparison.
				sub := tab.SubTable(firstN(12))
				opt, err := exact.SolveWeightedCtx(context.Background(), sub, k, w, nil)
				if err != nil {
					return nil, err
				}
				g, err := algo.GreedyBall(sub, k, &algo.Options{Weights: w})
				if err != nil {
					return nil, err
				}
				if opt.Value > 0 {
					if r := exact.Ratio(g.WeightedCost, opt.Value); r > worstRatio {
						worstRatio = r
					}
				}
			}
			t.AddRow(itoa(wp), itoa(k), itoa(trials),
				itoa(pu), itoa(pw), itoa(tu), itoa(tw), f3(worstRatio))
		}
	}
	return []*Table{t}, nil
}

// columnStars counts the stars an algo.Result placed in one column.
func columnStars(r *algo.Result, col int) int {
	total := 0
	for i := 0; i < r.Suppressor.Rows(); i++ {
		if r.Suppressor.Suppressed(i, col) {
			total++
		}
	}
	return total
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
