package harness

import (
	"math/rand"
	"runtime"
	"time"

	"kanon/internal/algo"
	"kanon/internal/dataset"
	"kanon/internal/obs"
	"kanon/internal/stream"
)

// runE3 measures wall-clock scaling of the two algorithms: the
// exhaustive family explodes as O(n^{2k−1}) candidate sets while the
// ball variant stays strongly polynomial — the crossover motivating
// §4.3.
func runE3(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Runtime scaling (census-like workload, m = 8)",
		Header: []string{"algorithm", "k", "n", "family sets", "cover time", "total time", "cost"},
		Notes: []string{
			"exhaustive rows stop where the candidate family exceeds the 5M-set guard — the O(n^{2k}) wall",
			"ball rows continue to n in the thousands (paper: O(mn^2 + n^3))",
		},
	}
	exhaustiveNs := map[int][]int{
		2: {10, 20, 40, 80, 160, 320},
		3: {10, 15, 20, 30, 40, 60},
	}
	ballNs := []int{10, 40, 160, 640, 2000}
	if cfg.Quick {
		exhaustiveNs = map[int][]int{2: {10, 20, 40}, 3: {10, 15, 20}}
		ballNs = []int{10, 40, 160, 500}
	}

	for _, k := range []int{2, 3} {
		for _, n := range exhaustiveNs[k] {
			rng := rand.New(rand.NewSource(cfg.seed() + int64(n*10+k)))
			tab := dataset.Census(rng, n, 8)
			tr := obs.New()
			start := time.Now()
			r, err := algo.GreedyExhaustive(tab, k, &algo.Options{Trace: tr.Start("e3")})
			total := time.Since(start)
			if err != nil {
				// The family guard fired: record the wall and stop.
				t.AddRow("exhaustive", itoa(k), itoa(n), ">5M (guard)", "-", "-", "-")
				break
			}
			t.AddRow("exhaustive", itoa(k), itoa(n), itoa(r.Stats.FamilySize),
				dur(coverTime(tr)), dur(total), itoa(r.Cost))
		}
	}
	for _, k := range []int{2, 3} {
		for _, n := range ballNs {
			rng := rand.New(rand.NewSource(cfg.seed() + int64(n*10+k)))
			tab := dataset.Census(rng, n, 8)
			tr := obs.New()
			start := time.Now()
			r, err := algo.GreedyBall(tab, k, &algo.Options{Workers: cfg.Workers, Trace: tr.Start("e3")})
			if err != nil {
				return nil, err
			}
			total := time.Since(start)
			t.AddRow("ball", itoa(k), itoa(n), "implicit",
				dur(coverTime(tr)), dur(total), itoa(r.Cost))
		}
	}

	// The streaming pipeline extends past the n² matrix wall with
	// bounded memory; block size 1000 keeps per-block work constant.
	streamNs := []int{2000, 10000, 30000}
	if cfg.Quick {
		streamNs = []int{2000, 6000}
	}
	for _, n := range streamNs {
		rng := rand.New(rand.NewSource(cfg.seed() + int64(n)))
		tab := dataset.Census(rng, n, 8)
		start := time.Now()
		sr, err := stream.Anonymize(tab, 3, &stream.Options{BlockRows: 1000, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		total := time.Since(start)
		t.AddRow("stream(b=1000)", "3", itoa(n), "implicit", "-", dur(total), itoa(sr.Cost))
	}

	// Worker sweep: the same workload at 1, 2, 4, ... NumCPU workers,
	// so the parallel layer's scaling is visible next to the sequential
	// baseline (outputs are byte-identical by construction).
	sweepN := 2000
	if cfg.Quick {
		sweepN = 500
	}
	for _, w := range workerSweep() {
		rng := rand.New(rand.NewSource(cfg.seed() + int64(sweepN*10+3)))
		tab := dataset.Census(rng, sweepN, 8)
		tr := obs.New()
		start := time.Now()
		r, err := algo.GreedyBall(tab, 3, &algo.Options{Workers: w, Trace: tr.Start("e3")})
		if err != nil {
			return nil, err
		}
		total := time.Since(start)
		t.AddRow("ball(workers="+itoa(w)+")", "3", itoa(sweepN), "implicit",
			dur(coverTime(tr)), dur(total), itoa(r.Cost))
	}
	for _, w := range workerSweep() {
		rng := rand.New(rand.NewSource(cfg.seed() + int64(10*sweepN)))
		tab := dataset.Census(rng, 10*sweepN, 8)
		start := time.Now()
		sr, err := stream.Anonymize(tab, 3, &stream.Options{BlockRows: 1000, Workers: w})
		if err != nil {
			return nil, err
		}
		total := time.Since(start)
		t.AddRow("stream(b=1000,workers="+itoa(w)+")", "3", itoa(10*sweepN), "implicit",
			"-", dur(total), itoa(sr.Cost))
	}
	return []*Table{t}, nil
}

// coverTime is Phase 1's wall time: the algo.cover span of the one run
// traced under tr's root.
func coverTime(tr *obs.Tracer) time.Duration {
	for _, sp := range tr.Snapshot().Spans[0].Children {
		if sp.Name == "algo.cover" {
			return time.Duration(sp.DurNS)
		}
	}
	return 0
}

// workerSweep returns 1, 2, 4, ... up to and including NumCPU (deduped
// when NumCPU is itself a power of two or 1).
func workerSweep() []int {
	ncpu := runtime.NumCPU()
	var ws []int
	for w := 1; w < ncpu; w *= 2 {
		ws = append(ws, w)
	}
	return append(ws, ncpu)
}
