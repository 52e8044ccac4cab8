package harness

// The regression bench suite: a fixed set of pinned-seed cases spanning
// every solver family, emitted as one self-describing JSON report
// (BenchReport). CI runs it on every push and compares the report
// against the checked-in BENCH_BASELINE.json with cmd/benchdiff: costs
// must match exactly (the algorithms are deterministic for a fixed
// seed), wall times within a tolerance. A calibration workload — a
// fixed-iteration xorshift loop — is timed alongside the cases so the
// comparator can scale wall tolerances when baseline and current runs
// executed on machines of different speeds.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"kanon/internal/algo"
	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/exact"
	"kanon/internal/hierarchy"
	"kanon/internal/metric"
	"kanon/internal/pattern"
	"kanon/internal/relation"
	"kanon/internal/stream"
)

// BenchSchema versions the report format; benchdiff refuses to compare
// reports with different schemas.
const BenchSchema = "kanon-bench-regress/1"

// BenchCase is one measured case of the regression suite.
type BenchCase struct {
	// Name identifies the case; baseline and current reports are joined
	// on it.
	Name string `json:"name"`
	// N, M, K describe the instance.
	N int `json:"n"`
	M int `json:"m"`
	K int `json:"k"`
	// Cost is the suppression objective the run produced. Deterministic
	// for a fixed seed, so benchdiff compares it exactly.
	Cost int `json:"cost"`
	// WallNS is the case's wall time in nanoseconds (monotonic clock),
	// best of BenchReps runs.
	WallNS int64 `json:"wall_ns"`
	// PeakAllocBytes is the heap allocated during the case — the
	// runtime.MemStats.TotalAlloc delta across one run, minimum over
	// the reps, after a forced GC. It upper-bounds the case's working
	// set, so it exposes O(n²) materialization: a dense n×n matrix
	// shows up as ≥ 2n² bytes here, the matrix-free kernel as O(n·m/64).
	// benchdiff reports it as informational only; it never gates.
	PeakAllocBytes int64 `json:"peak_alloc_bytes,omitempty"`
}

// BenchReport is the suite's self-describing output: environment,
// configuration, calibration, and the measured cases, in stable field
// order.
type BenchReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Workers    int    `json:"workers"`
	Quick      bool   `json:"quick"`
	// CalibrationNS times a fixed-work xorshift loop on this machine;
	// the ratio of two reports' calibrations estimates their relative
	// single-core speed.
	CalibrationNS int64       `json:"calibration_ns"`
	Cases         []BenchCase `json:"cases"`
}

// BenchReps is how many times each case runs; the report keeps the
// minimum wall time, the standard noise-robust choice.
const BenchReps = 3

// calibrationIters is the fixed iteration count of the xorshift
// calibration loop (~10ms of scalar work on a current laptop core).
const calibrationIters = 20_000_000

// Calibrate times the fixed xorshift workload. The loop's state feeds
// back into itself so the compiler cannot elide it.
func Calibrate() int64 {
	best := int64(0)
	for rep := 0; rep < BenchReps; rep++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < calibrationIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		el := time.Since(start).Nanoseconds()
		if x == 0 { // never true; keeps x live
			el++
		}
		if rep == 0 || el < best {
			best = el
		}
	}
	return best
}

// benchSpec defines one suite case: its shape and how to run it.
type benchSpec struct {
	name    string
	n, m, k int
	quickN  int // n under Config.Quick
	// kern pins the case to one distance-kernel backend; metric.Auto
	// (the zero value) defers to Config.Kernel.
	kern metric.Choice
	run  func(t *relation.Table, k, workers int, kern metric.Choice) (cost int, err error)
}

// benchSpecs returns the pinned suite. Every solver family appears:
// the two greedy algorithms (implicit and materialized families), the
// weighted variant, the pattern cover, the exact DP, the streaming
// pipeline (with and without local search), and the hierarchy solver.
// Instances are sized so the full suite finishes in a few seconds —
// small enough for CI, large enough that a real regression in a hot
// path moves the needle.
func benchSpecs() []benchSpec {
	ball := func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
		r, err := algo.GreedyBall(t, k, &algo.Options{Workers: workers, Kernel: kern})
		if err != nil {
			return 0, err
		}
		return r.Cost, nil
	}
	stream_ := func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
		r, err := stream.Anonymize(t, k, &stream.Options{BlockRows: 512, Workers: workers, Kernel: kern})
		if err != nil {
			return 0, err
		}
		return r.Cost, nil
	}
	return []benchSpec{
		{name: "ball_planted", n: 1200, m: 8, k: 3, quickN: 300, run: ball},
		{name: "ball_census", n: 1500, m: 6, k: 4, quickN: 300, run: ball},
		{name: "ball_diam", n: 600, m: 8, k: 3, quickN: 200, run: func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
			r, err := algo.GreedyBall(t, k, &algo.Options{TrueDiameterWeights: true, Workers: workers, Kernel: kern})
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{name: "ball_weighted", n: 800, m: 6, k: 3, quickN: 200, run: func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
			w := make(core.Weights, t.Degree())
			for j := range w {
				w[j] = 1 + j%3
			}
			r, err := algo.GreedyBall(t, k, &algo.Options{Weights: w, Workers: workers})
			if err != nil {
				return 0, err
			}
			return r.WeightedCost, nil
		}},
		{name: "exhaustive", n: 60, m: 6, k: 2, quickN: 40, run: func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
			r, err := algo.GreedyExhaustive(t, k, &algo.Options{Workers: workers, Kernel: kern})
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{name: "pattern", n: 800, m: 10, k: 3, quickN: 200, run: func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
			r, err := pattern.AnonymizeCtx(context.Background(), t, k, nil)
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{name: "exact_dp", n: 18, m: 5, k: 3, quickN: 14, run: func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
			r, err := exact.SolveCtx(context.Background(), t, k, exact.Stars, nil)
			if err != nil {
				return 0, err
			}
			return r.Value, nil
		}},
		{name: "stream", n: 8000, m: 8, k: 3, quickN: 1500, run: stream_},
		// The two large-n cases pin the matrix-free kernel: at these
		// sizes a dense matrix would cost 800 MB (ball_bitset) and make
		// the case a memory benchmark instead of a kernel benchmark.
		// Their peak_alloc_bytes in the baseline documents the
		// O(n·m/64) footprint.
		{name: "ball_bitset", n: 20000, m: 8, k: 3, quickN: 2000, kern: metric.Bitset, run: ball},
		{name: "stream_bitset", n: 100000, m: 8, k: 3, quickN: 5000, kern: metric.Bitset, run: stream_},
		// The hierarchy cases pin the generalization-lattice solver:
		// count-tree construction plus the tagged cut search. The planted
		// case runs with no budget (pure pruning path); the census case
		// adds a suppression budget, which forces full-score walks of
		// every non-failing node — the solver's other hot regime.
		{name: "hier_planted", n: 1500, m: 8, k: 3, quickN: 300, run: func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
			r, err := hierarchy.Solve(t, k, &hierarchy.Options{Workers: workers})
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		{name: "hier_census", n: 2000, m: 6, k: 4, quickN: 400, run: func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
			r, err := hierarchy.Solve(t, k, &hierarchy.Options{Workers: workers, MaxSuppress: 10})
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
		// The block path with local search on, as the CLI's -block 256
		// -refine runs it: refine does most of the work, and the exact
		// cost pins its move sequence. It stays last because each
		// case's table seed derives from its index.
		{name: "stream_refine", n: 4096, m: 8, k: 3, quickN: 1024, run: func(t *relation.Table, k, workers int, kern metric.Choice) (int, error) {
			r, err := stream.Anonymize(t, k, &stream.Options{BlockRows: 256, Refine: true, Workers: workers, Kernel: kern})
			if err != nil {
				return 0, err
			}
			return r.Cost, nil
		}},
	}
}

// benchTable builds the pinned instance for a spec: census-like data
// for the census and refine cases, planted clusters elsewhere (per-case
// seeds are derived from the suite seed so cases are independent).
func benchTable(spec benchSpec, n int, seed int64, idx int) *relation.Table {
	rng := rand.New(rand.NewSource(seed + int64(idx)*1_000_003))
	if spec.name == "ball_census" || spec.name == "hier_census" || spec.name == "stream_refine" {
		return dataset.Census(rng, n, spec.m)
	}
	return dataset.Planted(rng, n, spec.m, 6, spec.k, 1)
}

// RunBenchSuite executes the regression suite. slowdown ≥ 1 multiplies
// the recorded wall times — it exists solely so CI can verify the gate
// actually fires on a regression without hurting a real hot path.
func RunBenchSuite(cfg Config, slowdown float64) (*BenchReport, error) {
	if slowdown < 1 {
		slowdown = 1
	}
	rep := &BenchReport{
		Schema:        BenchSchema,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          cfg.EffectiveSeed(),
		Workers:       cfg.Workers,
		Quick:         cfg.Quick,
		CalibrationNS: Calibrate(),
	}
	for i, spec := range benchSpecs() {
		n := spec.n
		if cfg.Quick {
			n = spec.quickN
		}
		t := benchTable(spec, n, rep.Seed, i)
		kern := spec.kern
		if kern == metric.Auto {
			kern = cfg.Kernel
		}
		var cost int
		var best, bestAlloc int64
		var ms0, ms1 runtime.MemStats
		for r := 0; r < BenchReps; r++ {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			c, err := spec.run(t, spec.k, cfg.Workers, kern)
			el := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&ms1)
			alloc := int64(ms1.TotalAlloc - ms0.TotalAlloc)
			if err != nil {
				return nil, fmt.Errorf("harness: bench case %s: %w", spec.name, err)
			}
			if r == 0 {
				cost = c
			} else if c != cost {
				return nil, fmt.Errorf("harness: bench case %s: nondeterministic cost: %d then %d", spec.name, cost, c)
			}
			if r == 0 || el < best {
				best = el
			}
			if r == 0 || alloc < bestAlloc {
				bestAlloc = alloc
			}
		}
		rep.Cases = append(rep.Cases, BenchCase{
			Name:           spec.name,
			N:              n,
			M:              spec.m,
			K:              spec.k,
			Cost:           cost,
			WallNS:         int64(float64(best) * slowdown),
			PeakAllocBytes: bestAlloc,
		})
	}
	return rep, nil
}
