package exact

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"kanon/internal/core"
	"kanon/internal/metric"
	"kanon/internal/relation"
)

func randomTable(rng *rand.Rand, n, m, sigma int) *relation.Table {
	vecs := make([][]int, n)
	for i := range vecs {
		v := make([]int, m)
		for j := range v {
			v[j] = rng.Intn(sigma)
		}
		vecs[i] = v
	}
	return relation.MustFromVectors(vecs)
}

// bruteForceOPT enumerates all partitions into groups of size ≥ k via
// recursive generation (no 2k−1 cap, so it independently validates the
// wlog the DP relies on). Only for very small n.
func bruteForceOPT(t *relation.Table, k int, obj Objective) int {
	n := t.Len()
	mat := metric.NewMatrix(t)
	cost := groupCostFunc(t, mat, obj)
	best := math.MaxInt32
	assigned := make([]int, n) // group id per row, -1 = none
	for i := range assigned {
		assigned[i] = -1
	}
	var groups [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			total := 0
			for _, g := range groups {
				if len(g) < k {
					return
				}
				total += cost(g)
			}
			if total < best {
				best = total
			}
			return
		}
		// Join an existing group or open a new one.
		for gi := range groups {
			groups[gi] = append(groups[gi], i)
			rec(i + 1)
			groups[gi] = groups[gi][:len(groups[gi])-1]
		}
		groups = append(groups, []int{i})
		rec(i + 1)
		groups = groups[:len(groups)-1]
	}
	rec(0)
	return best
}

func TestSolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(2)
		n := k + rng.Intn(8-k+1)
		if n < k {
			n = k
		}
		tab := randomTable(rng, n, 3, 2)
		for _, obj := range []Objective{Stars, DiameterSum} {
			r, err := SolveCtx(context.Background(), tab, k, obj, nil)
			if err != nil {
				t.Fatalf("trial %d: Solve: %v", trial, err)
			}
			want := bruteForceOPT(tab, k, obj)
			if r.Value != want {
				t.Fatalf("trial %d (n=%d k=%d obj=%d): DP=%d brute=%d", trial, n, k, obj, r.Value, want)
			}
			if err := r.Partition.Validate(tab.Len(), k, 2*k-1); err != nil {
				t.Fatalf("trial %d: invalid partition: %v", trial, err)
			}
			if obj == Stars {
				if got := r.Partition.Cost(tab); got != r.Value {
					t.Fatalf("trial %d: partition cost %d != value %d", trial, got, r.Value)
				}
			} else {
				mat := metric.NewMatrix(tab)
				if got := r.Partition.DiameterSum(mat); got != r.Value {
					t.Fatalf("trial %d: diameter sum %d != value %d", trial, got, r.Value)
				}
			}
		}
	}
}

func TestSolveKnownInstances(t *testing.T) {
	// Paper's §4 example: V = {1010, 1110, 0110}, k = 3. The only
	// partition is one group; cols 0,1 non-uniform → OPT = 6.
	tab := relation.MustFromBitstrings("1010", "1110", "0110")
	v, err := OPT(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("OPT(example, 3) = %d, want 6", v)
	}
	// Already 2-anonymous table: OPT = 0.
	dup := relation.MustFromVectors([][]int{{1, 2}, {1, 2}, {3, 4}, {3, 4}})
	v, err = OPT(dup, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("OPT(duplicated, 2) = %d, want 0", v)
	}
	// Diameter-sum objective on the same: min diameter sum 0.
	r, err := SolveCtx(context.Background(), dup, 2, DiameterSum, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 {
		t.Errorf("min diameter sum = %d, want 0", r.Value)
	}
}

func TestSolveErrors(t *testing.T) {
	tab := relation.MustFromVectors([][]int{{1}, {2}})
	if _, err := SolveCtx(context.Background(), tab, 0, Stars, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := SolveCtx(context.Background(), tab, 3, Stars, nil); err == nil {
		t.Error("accepted n < k")
	}
	big := randomTable(rand.New(rand.NewSource(1)), MaxDPRows+1, 2, 2)
	if _, err := SolveCtx(context.Background(), big, 2, Stars, nil); err == nil {
		t.Error("accepted n > MaxDPRows")
	}
}

func TestSolveInfeasibleSizeGap(t *testing.T) {
	// n = 5, k = 3: only partitions are one group of 5 > 2k−1 = 5 ✓
	// feasible actually ({5} has size 5 = 2k−1). n = 7, k = 3: groups
	// from {3,4,5}: 3+4 = 7 ✓ feasible. True infeasibility needs
	// n in (k, 2k) split impossibility… n=5,k=4: single group of 5 ≤ 7 ✓.
	// In fact any n ≥ k is feasible (one group, split if > 2k−1; n ≥ k
	// guarantees chunks ≥ k). So Solve must succeed for all n ≥ k ≤ DP cap.
	rng := rand.New(rand.NewSource(2))
	for k := 2; k <= 4; k++ {
		for n := k; n <= 12; n++ {
			tab := randomTable(rng, n, 3, 2)
			if _, err := SolveCtx(context.Background(), tab, k, Stars, nil); err != nil {
				t.Errorf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
}

func TestBranchBoundMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(2)
		n := k + rng.Intn(10)
		tab := randomTable(rng, n, 4, 3)
		dp, err := SolveCtx(context.Background(), tab, k, Stars, nil)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := BranchBound(tab, k, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bb.Optimal {
			t.Fatalf("trial %d: branch-and-bound hit default budget on n=%d", trial, n)
		}
		if bb.Value != dp.Value {
			t.Fatalf("trial %d (n=%d k=%d): BB=%d DP=%d", trial, n, k, bb.Value, dp.Value)
		}
		if err := Certify(tab, k, bb); err != nil {
			t.Fatalf("trial %d: certify: %v", trial, err)
		}
	}
}

func TestBranchBoundBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tab := randomTable(rng, 16, 6, 4)
	r, err := BranchBound(tab, 3, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Optimal {
		t.Error("50-node budget should not close a 16-row instance")
	}
	// Anytime result must still be a valid partition with true cost.
	if err := Certify(tab, 3, r); err != nil {
		t.Errorf("budgeted result not certified: %v", err)
	}
}

func TestBranchBoundErrors(t *testing.T) {
	tab := relation.MustFromVectors([][]int{{1}, {2}})
	if _, err := BranchBound(tab, 0, 0, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := BranchBound(tab, 3, 0, nil); err == nil {
		t.Error("accepted n < k")
	}
}

func TestLowerBoundNN(t *testing.T) {
	tab := relation.MustFromBitstrings("0000", "0001", "1110", "1111")
	// (k−1)=1-NN distances: each row's nearest is at distance 1 → LB 4.
	if got := LowerBoundNN(tab, 2); got != 4 {
		t.Errorf("LowerBoundNN = %d, want 4", got)
	}
	if got := LowerBoundNN(tab, 1); got != 0 {
		t.Errorf("LowerBoundNN(k=1) = %d, want 0", got)
	}
	opt, err := OPT(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt < LowerBoundNN(tab, 2) {
		t.Errorf("OPT %d below NN lower bound", opt)
	}
}

func TestLowerBoundNeverExceedsOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(2)
		n := k + rng.Intn(9)
		tab := randomTable(rng, n, 4, 2)
		opt, err := OPT(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		if lb := LowerBoundNN(tab, k); lb > opt {
			t.Errorf("trial %d: LB %d > OPT %d", trial, lb, opt)
		}
	}
}

func TestCertifyCatchesBadClaims(t *testing.T) {
	tab := relation.MustFromBitstrings("0000", "0001", "1110", "1111")
	// Wrong value.
	p := &core.Partition{Groups: [][]int{{0, 1}, {2, 3}}}
	bad := &Result{Partition: p, Value: 999}
	if err := Certify(tab, 2, bad); err == nil {
		t.Error("Certify accepted wrong value")
	}
	// Claimed optimum worse than sorted chunks.
	expensive := &core.Partition{Groups: [][]int{{0, 2}, {1, 3}}}
	worse := &Result{Partition: expensive, Value: expensive.Cost(tab)}
	if err := Certify(tab, 2, worse); err == nil {
		t.Error("Certify accepted a beatable 'optimum'")
	}
	// Invalid partition.
	invalid := &Result{Partition: &core.Partition{Groups: [][]int{{0}, {1, 2, 3}}}, Value: 0}
	if err := Certify(tab, 2, invalid); err == nil {
		t.Error("Certify accepted invalid partition")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(10, 5); got != 2 {
		t.Errorf("Ratio(10,5) = %v", got)
	}
	if got := Ratio(0, 0); got != 1 {
		t.Errorf("Ratio(0,0) = %v", got)
	}
	if got := Ratio(3, 0); !math.IsInf(got, 1) {
		t.Errorf("Ratio(3,0) = %v, want +Inf", got)
	}
}

func TestChunkPartition(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(37)), 11, 3, 2)
	groups, cost := chunkPartition(tab, 3)
	p := &core.Partition{Groups: groups}
	if err := p.Validate(11, 3, 0); err != nil {
		t.Fatalf("chunk partition invalid: %v", err)
	}
	if got := p.Cost(tab); got != cost {
		t.Errorf("reported cost %d != recomputed %d", cost, got)
	}
	for _, g := range groups {
		if len(g) > 5 { // 2k−1 with k=3
			t.Errorf("chunk group size %d > 5", len(g))
		}
	}
}
