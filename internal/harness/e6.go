package harness

import (
	"context"
	"fmt"
	"math/rand"

	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/exact"
	"kanon/internal/metric"
	"kanon/internal/relation"
)

// runE6 measures Lemma 4.1's sandwich between the k-anonymity optimum
// and the k-minimum diameter sum, using exact solvers for both
// objectives. It reports both the paper's printed constants and the
// conservative ones, plus the adversarial sunflower family on which the
// printed upper constant fails.
func runE6(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Lemma 4.1 sandwich: OPT(V) vs optimal diameter-sum partition Π*",
		Header: []string{"workload", "k", "trials", "d(Π*)=0",
			"min OPT/d(Π*)", "max OPT/d(Π*)",
			"k/2 lower ok", "(2k-1) upper ok", "safe upper ok"},
		Notes: []string{
			"lower bounds compare OPT against (k/2)·d(Π*); 'upper ok' counts instances with OPT ≤ (2k−1)·d(Π*) (printed) and ≤ (2k−1)(2k−2)·d(Π*) (safe)",
			"sunflower rows are the adversarial family where the printed constant fails (see DESIGN.md and internal/core)",
		},
	}
	trials := 12
	n := 12
	if cfg.Quick {
		trials, n = 5, 10
	}
	type wl struct {
		name string
		gen  func(rng *rand.Rand, k int) *relation.Table
	}
	wls := []wl{
		{"uniform", func(rng *rand.Rand, k int) *relation.Table { return dataset.Uniform(rng, n, 6, 3) }},
		{"planted", func(rng *rand.Rand, k int) *relation.Table { return dataset.Planted(rng, n, 6, 3, k, 2) }},
		{"zipf", func(rng *rand.Rand, k int) *relation.Table { return dataset.Zipf(rng, n, 6, 4, 1.5) }},
	}
	for _, w := range wls {
		for _, k := range []int{2, 3} {
			rng := rand.New(rand.NewSource(cfg.seed() + int64(k)))
			zeroD := 0
			minR, maxR := -1.0, 0.0
			lowerOK, upperOK, safeOK, counted := 0, 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				tab := w.gen(rng, k)
				opt, err := exact.OPT(tab, k)
				if err != nil {
					return nil, err
				}
				ds, err := exact.SolveCtx(context.Background(), tab, k, exact.DiameterSum, nil)
				if err != nil {
					return nil, err
				}
				if ds.Value == 0 {
					zeroD++
					continue
				}
				counted++
				r := float64(opt) / float64(ds.Value)
				if minR < 0 || r < minR {
					minR = r
				}
				if r > maxR {
					maxR = r
				}
				if float64(opt) >= float64(k)/2*float64(ds.Value) {
					lowerOK++
				}
				if float64(opt) <= float64(2*k-1)*float64(ds.Value) {
					upperOK++
				}
				if float64(opt) <= float64((2*k-1)*(2*k-2))*float64(ds.Value) {
					safeOK++
				}
			}
			minStr := "-"
			if minR >= 0 {
				minStr = f2(minR)
			}
			t.AddRow(w.name, itoa(k), itoa(trials), itoa(zeroD), minStr, f2(maxR),
				frac(lowerOK, counted), frac(upperOK, counted), frac(safeOK, counted))
		}
	}

	// Adversarial sunflowers: one group forced (n = 2k−1 rows), printed
	// upper constant (2k−1) fails while the safe constant holds.
	for _, k := range []int{3, 4, 5} {
		petals := 2*k - 2 // rows = petals + 1 = 2k−1
		tab := dataset.Sunflower(petals, 2)
		mat := metric.NewMatrix(tab)
		all := make([]int, tab.Len())
		for i := range all {
			all[i] = i
		}
		p := &core.Partition{Groups: [][]int{all}}
		check := core.CheckLemma41(tab, mat, p, k)
		t.AddRow(fmt.Sprintf("sunflower(%d,2)", petals), itoa(k), "1", "0",
			f2(float64(check.Cost)/float64(check.DiameterSum)),
			f2(float64(check.Cost)/float64(check.DiameterSum)),
			boolFrac(check.PaperLowerHolds), boolFrac(check.PaperUpperHolds), boolFrac(check.SafeUpperHolds))
	}
	return []*Table{t}, nil
}

func frac(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", a, b)
}

func boolFrac(ok bool) string {
	if ok {
		return "1/1"
	}
	return "0/1"
}
