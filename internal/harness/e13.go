package harness

import (
	"fmt"
	"math/rand"

	"kanon/internal/algo"
	"kanon/internal/dataset"
	"kanon/internal/exact"
)

// runE13 probes the paper's other §5 remark — "our proof for the
// general case uses an alphabet Σ of large size, so it is possible that
// the problem is still tractable for small constant-sized alphabets" —
// with an empirical hardness proxy: the nodes the branch-and-bound
// solver explores to close instances of identical shape but different
// alphabet size, plus the greedy's optimality gap. Binary instances
// closing with far fewer nodes (they carry many duplicate rows and
// cheap groups) is consistent with, though of course no proof of, the
// conjectured easier subcase.
func runE13(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Beyond the paper (§5): alphabet size as empirical hardness dial",
		Header: []string{"|Σ|", "k", "trials", "mean OPT", "mean B&B nodes",
			"worst greedy ratio"},
		Notes: []string{
			"fixed shape n = 13, m = 6; only the per-column alphabet varies",
			"B&B nodes measure how hard the exact search works; the Theorem 3.1 hardness construction needs |Σ| ≥ n",
		},
	}
	trials := 10
	n, m := 13, 6
	if cfg.Quick {
		trials, n = 4, 11
	}
	for _, sigma := range []int{2, 3, 5, n} {
		for _, k := range []int{2, 3} {
			rng := rand.New(rand.NewSource(cfg.seed() + int64(sigma*100+k)))
			var nodes, optSum int64
			worst := 1.0
			for trial := 0; trial < trials; trial++ {
				tab := dataset.Uniform(rng, n, m, sigma)
				bb, err := exact.BranchBound(tab, k, 0, nil)
				if err != nil {
					return nil, err
				}
				if !bb.Optimal {
					return nil, fmt.Errorf("E13: branch-and-bound hit its node budget at |Σ|=%d k=%d", sigma, k)
				}
				nodes += bb.Nodes
				optSum += int64(bb.Value)
				if bb.Value > 0 {
					g, err := algo.GreedyBall(tab, k, nil)
					if err != nil {
						return nil, err
					}
					if r := exact.Ratio(g.Cost, bb.Value); r > worst {
						worst = r
					}
				}
			}
			t.AddRow(itoa(sigma), itoa(k), itoa(trials),
				f1(float64(optSum)/float64(trials)),
				itoa(int(nodes/int64(trials))),
				f3(worst))
		}
	}
	return []*Table{t}, nil
}
