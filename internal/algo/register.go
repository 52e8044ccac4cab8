package algo

import "kanon/internal/solver"

// The greedy families register themselves so the facade and every
// binary dispatch through the solver registry instead of a switch.
func init() {
	solver.Register(solver.Info{
		Name:        "ball",
		Description: "Theorem 4.2's strongly polynomial 6k(1+ln m) greedy",
		Run: func(req solver.Request) (*solver.Result, error) {
			r, err := GreedyBall(req.Table, req.K, &Options{
				Ctx:                 req.Ctx,
				SplitSorted:         req.SplitSorted,
				TrueDiameterWeights: req.TrueDiameterWeights,
				Workers:             req.Workers,
				Kernel:              req.Kernel,
				Weights:             req.Weights,
				Trace:               req.Trace,
			})
			if err != nil {
				return nil, err
			}
			return &solver.Result{Partition: r.Partition}, nil
		},
	})
	solver.Register(solver.Info{
		Name:        "exhaustive",
		Description: "Theorem 4.1's 3k(1+ln k) greedy over all small subsets",
		Run: func(req solver.Request) (*solver.Result, error) {
			r, err := GreedyExhaustive(req.Table, req.K, &Options{
				Ctx: req.Ctx, SplitSorted: req.SplitSorted, Workers: req.Workers,
				Kernel: req.Kernel, Trace: req.Trace,
			})
			if err != nil {
				return nil, err
			}
			return &solver.Result{Partition: r.Partition}, nil
		},
	})
}
