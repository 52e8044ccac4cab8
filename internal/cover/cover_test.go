package cover

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

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

func validCover(n int, sets []Set) bool {
	covered := make([]bool, n)
	for _, s := range sets {
		for _, v := range s.Members {
			covered[v] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

func TestGreedySimple(t *testing.T) {
	// Element 0,1 cheap together; 2,3 cheap together; an expensive set
	// covering everything must lose.
	sets := []Set{
		{Members: []int{0, 1}, Weight: 1},
		{Members: []int{2, 3}, Weight: 1},
		{Members: []int{0, 1, 2, 3}, Weight: 100},
	}
	chosen, err := GreedyCtx(context.Background(), 4, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 2 || WeightSum(chosen) != 2 {
		t.Errorf("chosen %+v, want the two cheap sets", chosen)
	}
}

func TestGreedyPrefersRatio(t *testing.T) {
	// One weight-3 set covering 4 elements (ratio .75) beats two
	// weight-1 sets covering 1 each (ratio 1).
	sets := []Set{
		{Members: []int{0}, Weight: 1},
		{Members: []int{1}, Weight: 1},
		{Members: []int{0, 1, 2, 3}, Weight: 3},
	}
	chosen, err := GreedyCtx(context.Background(), 4, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || chosen[0].Weight != 3 {
		t.Errorf("chosen %+v, want the ratio-optimal big set", chosen)
	}
}

func TestGreedyUncoverable(t *testing.T) {
	sets := []Set{{Members: []int{0, 1}, Weight: 1}}
	if _, err := GreedyCtx(context.Background(), 3, sets, nil); err == nil {
		t.Error("Greedy covered element 2 with no candidate set")
	}
	if _, err := GreedyCtx(context.Background(), 1, nil, nil); err == nil {
		t.Error("Greedy succeeded with empty family")
	}
}

func TestGreedyZeroWeightFirst(t *testing.T) {
	sets := []Set{
		{Members: []int{0, 1}, Weight: 5},
		{Members: []int{0, 1}, Weight: 0},
	}
	chosen, err := GreedyCtx(context.Background(), 2, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || chosen[0].Weight != 0 {
		t.Errorf("chosen %+v, want the free set", chosen)
	}
}

// TestLazyMatchesNaive: the lazy-heap greedy must pick exactly the same
// sets as the full-rescan implementation (identical tie-breaking).
func TestLazyMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		nsets := 1 + rng.Intn(30)
		sets := make([]Set, 0, nsets)
		cov := make([]bool, n)
		for s := 0; s < nsets; s++ {
			sz := 1 + rng.Intn(4)
			mem := rng.Perm(n)[:min(sz, n)]
			for _, v := range mem {
				cov[v] = true
			}
			sets = append(sets, Set{Members: mem, Weight: rng.Intn(6)})
		}
		for v, c := range cov {
			if !c {
				sets = append(sets, Set{Members: []int{v}, Weight: 3})
			}
		}
		a, errA := GreedyCtx(context.Background(), n, sets, nil)
		b, errB := GreedyNaive(n, sets)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Weight != b[i].Weight || len(a[i].Members) != len(b[i].Members) {
				return false
			}
			for j := range a[i].Members {
				if a[i].Members[j] != b[i].Members[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(rng, 7, 4, 2)
	mat := metric.NewMatrix(tab)
	sets, err := ExhaustiveCtx(context.Background(), mat, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// C(7,2) + C(7,3) = 21 + 35 = 56.
	if len(sets) != 56 {
		t.Fatalf("family size %d, want 56", len(sets))
	}
	for _, s := range sets {
		if len(s.Members) < 2 || len(s.Members) > 3 {
			t.Errorf("set size %d outside [2,3]", len(s.Members))
		}
		if got := mat.Diameter(s.Members); got != s.Weight {
			t.Errorf("set %v weight %d, want diameter %d", s.Members, s.Weight, got)
		}
	}
}

func TestExhaustiveFamilyCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := randomTable(rng, 30, 4, 2)
	mat := metric.NewMatrix(tab)
	if _, err := ExhaustiveCtx(context.Background(), mat, 3, 1000, nil); err == nil {
		t.Error("Exhaustive ignored maxSets")
	}
	if _, err := ExhaustiveCtx(context.Background(), mat, 0, 0, nil); err == nil {
		t.Error("Exhaustive accepted k=0")
	}
	small := randomTable(rng, 2, 3, 2)
	if _, err := ExhaustiveCtx(context.Background(), metric.NewMatrix(small), 3, 0, nil); err == nil {
		t.Error("Exhaustive accepted n < k")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, s int
		want float64
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {6, 3, 20}, {4, 5, 0}, {3, -1, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.s); got != c.want {
			t.Errorf("binomial(%d,%d) = %v, want %v", c.n, c.s, got, c.want)
		}
	}
}

func TestBallsFamily(t *testing.T) {
	tab := relation.MustFromBitstrings("0000", "0001", "0011", "0111", "1111")
	mat := metric.NewMatrix(tab)
	sets, err := BallsCtx(context.Background(), mat, 2, WeightRadiusBound, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !validCover(5, sets) {
		t.Error("ball family does not cover V")
	}
	for _, s := range sets {
		if len(s.Members) < 2 {
			t.Errorf("ball %v smaller than k", s.Members)
		}
		if d := mat.Diameter(s.Members); s.Weight < d {
			t.Errorf("radius-bound weight %d below true diameter %d for %v", s.Weight, d, s.Members)
		}
	}
	// Center 0 has distances 0,1,2,3,4: balls of sizes 2..5 → 4 distinct.
	count0 := 0
	for _, s := range sets {
		has0 := false
		for _, v := range s.Members {
			if v == 0 {
				has0 = true
			}
		}
		if has0 && s.Members[0] == 0 && len(s.Members) >= 2 {
			count0++
		}
	}
	if count0 == 0 {
		t.Error("no balls centered near row 0")
	}
}

func TestBallsDedupDuplicateRows(t *testing.T) {
	// All rows identical: each center yields exactly one ball (radius
	// 0, all rows) with weight 0.
	tab := relation.MustFromVectors([][]int{{1, 1}, {1, 1}, {1, 1}})
	mat := metric.NewMatrix(tab)
	sets, err := BallsCtx(context.Background(), mat, 2, WeightRadiusBound, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("got %d balls, want 3 (one per center)", len(sets))
	}
	for _, s := range sets {
		if s.Weight != 0 || len(s.Members) != 3 {
			t.Errorf("ball %+v, want weight 0 size 3", s)
		}
	}
}

func TestBallsTrueDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab := randomTable(rng, 12, 5, 3)
	mat := metric.NewMatrix(tab)
	sets, err := BallsCtx(context.Background(), mat, 3, WeightTrueDiameter, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		if got := mat.Diameter(s.Members); got != s.Weight {
			t.Errorf("true-diameter weight %d != diameter %d", s.Weight, got)
		}
	}
}

func TestBallsErrors(t *testing.T) {
	tab := relation.MustFromVectors([][]int{{1}, {2}})
	mat := metric.NewMatrix(tab)
	if _, err := BallsCtx(context.Background(), mat, 0, WeightRadiusBound, 0, nil); err == nil {
		t.Error("Balls accepted k=0")
	}
	if _, err := BallsCtx(context.Background(), mat, 3, WeightRadiusBound, 0, nil); err == nil {
		t.Error("Balls accepted n < k")
	}
}

func TestReduceDisjointInputUnchanged(t *testing.T) {
	sets := []Set{
		{Members: []int{0, 1}, Weight: 1},
		{Members: []int{2, 3, 4}, Weight: 2},
	}
	p, err := Reduce(5, sets, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Normalize()
	if len(p.Groups) != 2 || len(p.Groups[0]) != 2 || len(p.Groups[1]) != 3 {
		t.Errorf("Reduce changed disjoint input: %v", p.Groups)
	}
}

func TestReduceRemovesFromLarger(t *testing.T) {
	// v=2 shared; the size-3 set is larger and exceeds k=2, so 2 is
	// removed from it.
	sets := []Set{
		{Members: []int{0, 1, 2}, Weight: 1},
		{Members: []int{2, 3}, Weight: 1},
	}
	p, err := Reduce(4, sets, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Normalize()
	if err := p.Validate(4, 2, 3); err != nil {
		t.Fatalf("invalid partition: %v (%v)", err, p.Groups)
	}
	// Expect {0,1} and {2,3}.
	if len(p.Groups) != 2 || len(p.Groups[0]) != 2 || p.Groups[1][0] != 2 {
		t.Errorf("groups = %v, want [[0 1] [2 3]]", p.Groups)
	}
}

func TestReduceMergesEqualK(t *testing.T) {
	// Both sets have size exactly k=2 and share v=1: they must merge
	// into one group of 3 ≤ 2k−1.
	sets := []Set{
		{Members: []int{0, 1}, Weight: 1},
		{Members: []int{1, 2}, Weight: 1},
	}
	p, err := Reduce(3, sets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 || len(p.Groups[0]) != 3 {
		t.Errorf("groups = %v, want one merged group of 3", p.Groups)
	}
}

func TestReduceUncovered(t *testing.T) {
	sets := []Set{{Members: []int{0, 1}, Weight: 1}}
	if _, err := Reduce(3, sets, 2); err == nil {
		t.Error("Reduce accepted a non-cover")
	}
}

// TestReducePropertyValidAndCheaper: on random covers, Reduce yields a
// valid partition with groups ≥ k and diameter sum no larger than the
// cover's (the paper's Phase 2 guarantee).
func TestReducePropertyValidAndCheaper(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(2)
		n := 2*k + rng.Intn(12)
		tab := randomTable(rng, n, 4, 3)
		mat := metric.NewMatrix(tab)
		// Random cover: random ≥k-sets until covered.
		covered := make([]bool, n)
		cnt := 0
		var sets []Set
		for cnt < n {
			sz := k + rng.Intn(k)
			mem := rng.Perm(n)[:min(sz, n)]
			if len(mem) < k {
				continue
			}
			for _, v := range mem {
				if !covered[v] {
					covered[v] = true
					cnt++
				}
			}
			sets = append(sets, Set{Members: mem, Weight: mat.Diameter(mem)})
		}
		p, err := Reduce(n, sets, k)
		if err != nil {
			return false
		}
		if err := p.Validate(n, k, 0); err != nil {
			return false
		}
		before := 0
		for _, s := range sets {
			before += mat.Diameter(s.Members)
		}
		return p.DiameterSum(mat) <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGreedyBallsMatchesMaterialized cross-checks the scalable implicit
// ball greedy against Greedy over the materialized ball family on fixed
// seeds (identical weights and near-identical tie-breaking).
func TestGreedyBallsMatchesMaterialized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		k := 2 + rng.Intn(2)
		tab := randomTable(rng, n, 5, 3)
		mat := metric.NewMatrix(tab)

		implicit, err := GreedyBallsCtx(context.Background(), mat, k, 0, nil)
		if err != nil {
			t.Fatalf("seed %d: GreedyBalls: %v", seed, err)
		}
		family, err := BallsCtx(context.Background(), mat, k, WeightRadiusBound, 0, nil)
		if err != nil {
			t.Fatalf("seed %d: Balls: %v", seed, err)
		}
		explicit, err := GreedyCtx(context.Background(), n, family, nil)
		if err != nil {
			t.Fatalf("seed %d: Greedy: %v", seed, err)
		}
		if !validCover(n, implicit) {
			t.Fatalf("seed %d: implicit result is not a cover", seed)
		}
		if got, want := WeightSum(implicit), WeightSum(explicit); got != want {
			t.Errorf("seed %d: implicit weight %d, explicit %d", seed, got, want)
		}
	}
}

func TestGreedyBallsErrors(t *testing.T) {
	tab := relation.MustFromVectors([][]int{{1}, {2}})
	mat := metric.NewMatrix(tab)
	if _, err := GreedyBallsCtx(context.Background(), mat, 0, 0, nil); err == nil {
		t.Error("GreedyBalls accepted k=0")
	}
	if _, err := GreedyBallsCtx(context.Background(), mat, 5, 0, nil); err == nil {
		t.Error("GreedyBalls accepted n < k")
	}
}

func TestGreedyBallsCoversEverything(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		k := 2 + rng.Intn(3)
		if n < k {
			n = k
		}
		tab := randomTable(rng, n, 4, 2)
		mat := metric.NewMatrix(tab)
		chosen, err := GreedyBallsCtx(context.Background(), mat, k, 0, nil)
		if err != nil {
			return false
		}
		for _, s := range chosen {
			if len(s.Members) < k {
				return false
			}
		}
		return validCover(n, chosen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiameterSumAndWeightSum(t *testing.T) {
	tab := relation.MustFromBitstrings("000", "001", "111")
	mat := metric.NewMatrix(tab)
	sets := []Set{
		{Members: []int{0, 1}, Weight: 9},
		{Members: []int{2}, Weight: 1},
	}
	if got := DiameterSum(mat, sets); got != 1 {
		t.Errorf("DiameterSum = %d, want 1", got)
	}
	if got := WeightSum(sets); got != 10 {
		t.Errorf("WeightSum = %d, want 10", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// witnessBalls builds the paper's alternative collection: for every
// ordered pair (c, c') the set S_{c,c'} = {v : d(c, v) ≤ d(c, c')}
// with at least k members, weighted 2·d(c, c') like BallsCtx's radius
// bound. Witnesses at the same distance from c give the same set, which
// is emitted once.
func witnessBalls(mat metric.Kernel, k int) []Set {
	var out []Set
	for c := 0; c < mat.Len(); c++ {
		seen := map[int]bool{}
		for w := 0; w < mat.Len(); w++ {
			r := mat.Dist(c, w)
			if seen[r] {
				continue
			}
			seen[r] = true
			if members := mat.Ball(c, r); len(members) >= k {
				out = append(out, Set{Members: members, Weight: 2 * r})
			}
		}
	}
	return out
}

// TestWitnessFamilyEqualsRadiusFamily substantiates the documented
// claim that the paper's two ball formulations — S_{c,i} over radii and
// S_{c,c'} over witness points — coincide after deduplication.
func TestWitnessFamilyEqualsRadiusFamily(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		k := 2 + rng.Intn(3)
		if n < k {
			n = k
		}
		tab := randomTable(rng, n, 4, 3)
		mat := metric.NewMatrix(tab)
		radius, err := BallsCtx(context.Background(), mat, k, WeightRadiusBound, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		witness := witnessBalls(mat, k)
		key := func(s Set) string {
			b := make([]byte, 0, len(s.Members)*2+2)
			for _, v := range s.Members {
				b = append(b, byte(v), byte(v>>8))
			}
			b = append(b, byte(s.Weight), byte(s.Weight>>8))
			return string(b)
		}
		a := map[string]int{}
		for _, s := range radius {
			a[key(s)]++
		}
		b := map[string]int{}
		for _, s := range witness {
			b[key(s)]++
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d distinct radius sets vs %d witness sets", seed, len(a), len(b))
		}
		for k2, c := range a {
			if b[k2] != c {
				t.Fatalf("seed %d: multiplicity mismatch for a set", seed)
			}
		}
	}
}

// minCoverDiameterSum computes the exact minimum diameter sum of a
// cover of {0..n−1} drawn from the family, by DP over covered masks
// (sets may overlap — this is a cover, not a partition). Small n only;
// used to verify Lemma 4.3.
func minCoverDiameterSum(n int, family []Set, weightOf func(Set) int) int {
	size := 1 << uint(n)
	const inf = int(^uint(0) >> 1)
	dp := make([]int, size)
	for i := 1; i < size; i++ {
		dp[i] = inf
	}
	masks := make([]int, len(family))
	for si, s := range family {
		m := 0
		for _, v := range s.Members {
			m |= 1 << uint(v)
		}
		masks[si] = m
	}
	for mask := 1; mask < size; mask++ {
		low := mask & (-mask)
		for si, sm := range masks {
			if sm&low == 0 {
				continue
			}
			rest := mask &^ sm
			if dp[rest] == inf {
				continue
			}
			if c := dp[rest] + weightOf(family[si]); c < dp[mask] {
				dp[mask] = c
			}
		}
	}
	return dp[size-1]
}

// TestLemma43BallCoverWithinTwiceOptimal verifies Lemma 4.3: the best
// cover by balls (with true diameters) costs at most twice the best
// (k, 2k−1)-cover from the exhaustive family. The paper proves the
// bound via d(S_{c,d(T)}) ≤ 2·d(T) for any T containing c.
func TestLemma43BallCoverWithinTwiceOptimal(t *testing.T) {
	diam := func(s Set) int { return s.Weight }
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7)
		k := 2 + rng.Intn(2)
		if n < k {
			continue
		}
		tab := randomTable(rng, n, 3+rng.Intn(4), 2+rng.Intn(2))
		mat := metric.NewMatrix(tab)
		exFam, err := ExhaustiveCtx(context.Background(), mat, k, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ballFam, err := BallsCtx(context.Background(), mat, k, WeightTrueDiameter, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		optEx := minCoverDiameterSum(n, exFam, diam)
		optBall := minCoverDiameterSum(n, ballFam, diam)
		if optBall > 2*optEx {
			t.Errorf("seed %d (n=%d k=%d): ball cover optimum %d > 2× exhaustive optimum %d",
				seed, n, k, optBall, optEx)
		}
		// Note the families are incomparable: C holds every set of size
		// ≤ 2k−1, D holds balls of any size, so either optimum may win
		// (a single large cheap ball often beats any small-set cover).
		// Lemma 4.3 only bounds the ball side from above.
	}
}
