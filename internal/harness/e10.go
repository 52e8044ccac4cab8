package harness

import (
	"context"
	"math/rand"
	"time"

	"kanon/internal/algo"
	"kanon/internal/cover"
	"kanon/internal/dataset"
	"kanon/internal/metric"
	"kanon/internal/pattern"
	"kanon/internal/relation"
)

// runE10 quantifies the design decisions DESIGN.md calls out: the
// oversize-split policy, ball weight mode, candidate family choice,
// lazy vs naive greedy, and the value of the Reduce phase.
func runE10(cfg Config) ([]*Table, error) {
	trials := 10
	n := 40
	if cfg.Quick {
		trials, n = 4, 24
	}

	split := &Table{
		ID:     "E10",
		Title:  "Ablation: oversize-group split policy (GreedyBall)",
		Header: []string{"workload", "k", "trials", "arbitrary stars", "similarity stars", "delta"},
	}
	weights := &Table{
		ID:     "E10",
		Title:  "Ablation: ball weights — 2·radius bound vs true diameter",
		Header: []string{"workload", "k", "trials", "radius-bound stars", "true-diameter stars", "delta"},
	}
	family := &Table{
		ID:     "E10",
		Title:  "Ablation: candidate family — exhaustive C vs balls D vs patterns (small n)",
		Header: []string{"workload", "k", "trials", "exhaustive", "ball", "pattern"},
		Notes:  []string{"mean stars over the corpus; exhaustive is Theorem 4.1's family, feasible only at this scale"},
	}
	lazy := &Table{
		ID:     "E10",
		Title:  "Ablation: lazy greedy vs naive full-rescan greedy (identical outputs)",
		Header: []string{"n", "family sets", "identical picks", "naive time", "lazy time", "speedup"},
	}
	reduce := &Table{
		ID:     "E10",
		Title:  "Ablation: Phase 2 Reduce — cover vs partition diameter sums",
		Header: []string{"workload", "k", "trials", "cover Σd", "partition Σd", "increases"},
		Notes:  []string{"the paper's guarantee: Reduce never increases the diameter sum"},
	}

	type wl struct {
		name string
		gen  func(rng *rand.Rand, k int) *relation.Table
	}
	wls := []wl{
		{"census", func(rng *rand.Rand, k int) *relation.Table { return dataset.Census(rng, n, 6) }},
		{"planted", func(rng *rand.Rand, k int) *relation.Table { return dataset.Planted(rng, n, 6, 3, k, 2) }},
	}

	for _, w := range wls {
		for _, k := range []int{3, 5} {
			rng := rand.New(rand.NewSource(cfg.seed() + int64(k)))
			sumArb, sumSorted, sumBound, sumTrue := 0, 0, 0, 0
			coverD, partD, increases := 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				tab := w.gen(rng, k)
				a, err := algo.GreedyBall(tab, k, nil)
				if err != nil {
					return nil, err
				}
				s, err := algo.GreedyBall(tab, k, &algo.Options{SplitSorted: true})
				if err != nil {
					return nil, err
				}
				td, err := algo.GreedyBall(tab, k, &algo.Options{TrueDiameterWeights: true})
				if err != nil {
					return nil, err
				}
				sumArb += a.Cost
				sumSorted += s.Cost
				sumBound += a.Cost
				sumTrue += td.Cost

				// Reduce effect, measured directly on the cover.
				mat := metric.NewMatrix(tab)
				chosen, err := cover.GreedyBallsCtx(context.Background(), mat, k, 0, nil)
				if err != nil {
					return nil, err
				}
				before := cover.DiameterSum(mat, chosen)
				p, err := cover.Reduce(tab.Len(), chosen, k)
				if err != nil {
					return nil, err
				}
				after := p.DiameterSum(mat)
				coverD += before
				partD += after
				if after > before {
					increases++
				}
			}
			split.AddRow(w.name, itoa(k), itoa(trials), itoa(sumArb), itoa(sumSorted), itoa(sumSorted-sumArb))
			weights.AddRow(w.name, itoa(k), itoa(trials), itoa(sumBound), itoa(sumTrue), itoa(sumTrue-sumBound))
			reduce.AddRow(w.name, itoa(k), itoa(trials), itoa(coverD), itoa(partD), itoa(increases))
		}
	}

	// Family ablation at exact-friendly scale.
	fn := 14
	for _, w := range wls {
		for _, k := range []int{2, 3} {
			rng := rand.New(rand.NewSource(cfg.seed() + int64(k*7)))
			sumEx, sumBall, sumPat := 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				var tab *relation.Table
				if w.name == "census" {
					tab = dataset.Census(rng, fn, 6)
				} else {
					tab = dataset.Planted(rng, fn, 6, 3, k, 2)
				}
				e, err := algo.GreedyExhaustive(tab, k, nil)
				if err != nil {
					return nil, err
				}
				b, err := algo.GreedyBall(tab, k, nil)
				if err != nil {
					return nil, err
				}
				p, err := pattern.AnonymizeCtx(context.Background(), tab, k, nil)
				if err != nil {
					return nil, err
				}
				sumEx += e.Cost
				sumBall += b.Cost
				sumPat += p.Cost
			}
			family.AddRow(w.name, itoa(k), itoa(trials),
				f1(float64(sumEx)/float64(trials)),
				f1(float64(sumBall)/float64(trials)),
				f1(float64(sumPat)/float64(trials)))
		}
	}

	// Lazy vs naive greedy on materialized ball families.
	for _, ln := range []int{30, 60, 120} {
		if cfg.Quick && ln > 60 {
			break
		}
		rng := rand.New(rand.NewSource(cfg.seed() + int64(ln)))
		tab := dataset.Census(rng, ln, 6)
		mat := metric.NewMatrix(tab)
		sets, err := cover.BallsCtx(context.Background(), mat, 3, cover.WeightRadiusBound, 0, nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		naive, err := cover.GreedyNaive(tab.Len(), sets)
		if err != nil {
			return nil, err
		}
		naiveT := time.Since(start)
		start = time.Now()
		fast, err := cover.GreedyCtx(context.Background(), tab.Len(), sets, nil)
		if err != nil {
			return nil, err
		}
		lazyT := time.Since(start)
		identical := len(naive) == len(fast)
		if identical {
			for i := range naive {
				if naive[i].Weight != fast[i].Weight || len(naive[i].Members) != len(fast[i].Members) {
					identical = false
					break
				}
			}
		}
		speed := "-"
		if lazyT > 0 {
			speed = f2(float64(naiveT) / float64(lazyT))
		}
		lazy.AddRow(itoa(ln), itoa(len(sets)), yesNo(identical), dur(naiveT), dur(lazyT), speed)
	}

	return []*Table{split, weights, family, lazy, reduce}, nil
}
