package harness

import (
	"context"
	"math/rand"
	"time"

	"kanon/internal/algo"
	"kanon/internal/baseline"
	"kanon/internal/dataset"
	"kanon/internal/exact"
	"kanon/internal/pattern"
	"kanon/internal/refine"
	"kanon/internal/relation"
)

// runE8 compares the paper's ball greedy against practical baselines on
// realistic (census-like and Zipf) workloads — the "we believe this
// algorithm could potentially be quite fast in practice" claim, with k
// in the 5–6 range the paper cites from Sweeney.
func runE8(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Cost and latency on realistic workloads",
		Header: []string{"workload", "n", "k", "algorithm", "stars", "vs best", "NN lower bound", "time"},
		Notes: []string{
			"'vs best' normalizes stars to the best algorithm on that instance",
			"'NN lower bound' is Σ (k−1)-NN distance ≤ OPT — a certificate since exact OPT is out of reach at these sizes",
		},
	}
	ns := []int{100, 400, 1200}
	ks := []int{2, 5, 6}
	if cfg.Quick {
		ns = []int{60, 150}
		ks = []int{2, 5}
	}
	type runnerFn struct {
		name string
		run  func(tab *relation.Table, k int) (int, error)
	}
	runners := []runnerFn{
		{"ball (Thm 4.2)", func(tab *relation.Table, k int) (int, error) {
			r, err := algo.GreedyBall(tab, k, &algo.Options{Workers: cfg.Workers})
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{"ball+refine", func(tab *relation.Table, k int) (int, error) {
			r, err := algo.GreedyBall(tab, k, &algo.Options{Workers: cfg.Workers})
			if err != nil {
				return 0, err
			}
			st, err := refine.Partition(tab, r.Partition, k, nil)
			if err != nil {
				return 0, err
			}
			return st.CostAfter, nil
		}},
		{"kmember", func(tab *relation.Table, k int) (int, error) {
			r, err := baseline.KMember(tab, k)
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{"mondrian", func(tab *relation.Table, k int) (int, error) {
			r, err := baseline.Mondrian(tab, k)
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{"sorted", func(tab *relation.Table, k int) (int, error) {
			r, err := baseline.SortedChunks(tab, k)
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{"random", func(tab *relation.Table, k int) (int, error) {
			r, err := baseline.RandomChunks(tab, k, rand.New(rand.NewSource(1)))
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{"columns", func(tab *relation.Table, k int) (int, error) {
			r, err := baseline.SuppressColumns(tab, k)
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{"pattern", func(tab *relation.Table, k int) (int, error) {
			r, err := pattern.AnonymizeCtx(context.Background(), tab, k, nil)
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
	}
	gens := []struct {
		name string
		gen  func(rng *rand.Rand, n int) *relation.Table
	}{
		{"census", func(rng *rand.Rand, n int) *relation.Table { return dataset.Census(rng, n, 8) }},
		{"zipf", func(rng *rand.Rand, n int) *relation.Table { return dataset.Zipf(rng, n, 8, 12, 1.6) }},
	}
	for _, g := range gens {
		for _, n := range ns {
			for _, k := range ks {
				rng := rand.New(rand.NewSource(cfg.seed() + int64(n*10+k)))
				tab := g.gen(rng, n)
				lb := exact.LowerBoundNN(tab, k)
				type outcome struct {
					name string
					cost int
					d    time.Duration
				}
				var outs []outcome
				best := -1
				for _, r := range runners {
					start := time.Now()
					cost, err := r.run(tab, k)
					if err != nil {
						return nil, err
					}
					d := time.Since(start)
					outs = append(outs, outcome{r.name, cost, d})
					if best == -1 || cost < best {
						best = cost
					}
				}
				for _, o := range outs {
					vs := "1.00"
					if best > 0 {
						vs = f2(float64(o.cost) / float64(best))
					} else if o.cost > 0 {
						vs = "inf"
					}
					t.AddRow(g.name, itoa(n), itoa(k), o.name, itoa(o.cost), vs, itoa(lb), dur(o.d))
				}
			}
		}
	}
	return []*Table{t}, nil
}
