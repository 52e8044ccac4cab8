package metric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kanon/internal/relation"
)

func TestDistanceBasics(t *testing.T) {
	tab := relation.MustFromBitstrings("1010", "1110", "0110")
	cases := []struct {
		i, j, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 2, 1},
		{0, 2, 2}, // the paper's §4 example: 1010 and 0110 differ in two coordinates
	}
	for _, c := range cases {
		if got := Distance(tab.Row(c.i), tab.Row(c.j)); got != c.want {
			t.Errorf("Distance(row %d, row %d) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
}

func TestDistanceWithStars(t *testing.T) {
	u := relation.Row{relation.Star, 1, 2}
	v := relation.Row{relation.Star, 1, 3}
	if got := Distance(u, v); got != 1 {
		t.Errorf("Distance = %d, want 1 (stars compare equal)", got)
	}
	w := relation.Row{0, 1, 3}
	if got := Distance(u, w); got != 2 {
		t.Errorf("Distance = %d, want 2 (star differs from concrete)", got)
	}
}

// TestDistanceIsMetric verifies the paper's remark that d is a metric,
// using testing/quick over random vector triples.
func TestDistanceIsMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(12)
		mk := func() relation.Row {
			r := make(relation.Row, m)
			for j := range r {
				r[j] = int32(rng.Intn(3))
			}
			return r
		}
		u, v, w := mk(), mk(), mk()
		duv, dvu := Distance(u, v), Distance(v, u)
		if duv != dvu { // symmetry
			return false
		}
		if Distance(u, u) != 0 { // identity
			return false
		}
		if duv == 0 && !u.Equal(v) { // separation
			return false
		}
		// triangle inequality
		return Distance(u, w) <= duv+Distance(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDiameter(t *testing.T) {
	tab := relation.MustFromBitstrings("1010", "1110", "0110")
	// The paper's example: the 3-group has diameter 2.
	if got := Diameter(tab, []int{0, 1, 2}); got != 2 {
		t.Errorf("Diameter = %d, want 2", got)
	}
	if got := Diameter(tab, []int{1}); got != 0 {
		t.Errorf("singleton Diameter = %d, want 0", got)
	}
	if got := Diameter(tab, nil); got != 0 {
		t.Errorf("empty Diameter = %d, want 0", got)
	}
	if got := Diameter(tab, []int{0, 2}); got != 2 {
		t.Errorf("pair Diameter = %d, want 2", got)
	}
}

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

func TestMatrixAgreesWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, 20, 6, 3)
	m := NewMatrix(tab)
	if m.Len() != 20 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < tab.Len(); i++ {
		for j := 0; j < tab.Len(); j++ {
			want := Distance(tab.Row(i), tab.Row(j))
			if got := m.Dist(i, j); got != want {
				t.Fatalf("Dist(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestMatrixDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := randomTable(rng, 15, 5, 2)
	m := NewMatrix(tab)
	sets := [][]int{{0, 1, 2}, {3, 7, 9, 14}, {5}, {}}
	for _, s := range sets {
		if got, want := m.Diameter(s), Diameter(tab, s); got != want {
			t.Errorf("Matrix.Diameter(%v) = %d, want %d", s, got, want)
		}
	}
}

func TestDiameterWith(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := randomTable(rng, 12, 6, 3)
	m := NewMatrix(tab)
	set := []int{1, 4, 7}
	cur := m.Diameter(set)
	for extra := 0; extra < tab.Len(); extra++ {
		want := m.Diameter(append([]int{extra}, set...))
		if got := m.DiameterWith(set, cur, extra); got != want {
			t.Errorf("DiameterWith(%v, %d) = %d, want %d", set, extra, got, want)
		}
	}
}

func TestBall(t *testing.T) {
	tab := relation.MustFromBitstrings("0000", "1000", "1100", "1110", "1111")
	m := NewMatrix(tab)
	got := m.Ball(0, 2)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Ball(0,2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ball(0,2) = %v, want %v", got, want)
		}
	}
	if got := m.Ball(0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Ball(0,0) = %v, want [0]", got)
	}
	if got := m.Ball(0, 4); len(got) != 5 {
		t.Errorf("Ball(0,4) = %v, want all 5", got)
	}
}

// TestBallDiameterLemma42 checks Lemma 4.2: d(S_{c,i}) ≤ 2i.
func TestBallDiameterLemma42(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		mdeg := 2 + rng.Intn(8)
		tab := randomTable(rng, n, mdeg, 2+rng.Intn(3))
		mat := NewMatrix(tab)
		c := rng.Intn(n)
		i := rng.Intn(mdeg + 1)
		ball := mat.Ball(c, i)
		return mat.Diameter(ball) <= 2*i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKthNearest(t *testing.T) {
	tab := relation.MustFromBitstrings("0000", "0001", "0011", "1111")
	m := NewMatrix(tab)
	// Distances from row 0: 1, 2, 4.
	got := m.KthNearest(1)
	if got[0] != 1 {
		t.Errorf("KthNearest(1)[0] = %d, want 1", got[0])
	}
	got = m.KthNearest(2)
	if got[0] != 2 {
		t.Errorf("KthNearest(2)[0] = %d, want 2", got[0])
	}
	got = m.KthNearest(3)
	if got[0] != 4 {
		t.Errorf("KthNearest(3)[0] = %d, want 4", got[0])
	}
	// r beyond n−1 clamps to the maximum.
	got = m.KthNearest(99)
	if got[0] != 4 {
		t.Errorf("KthNearest(99)[0] = %d, want 4", got[0])
	}
	// r ≤ 0 is all zeros.
	got = m.KthNearest(0)
	for i, v := range got {
		if v != 0 {
			t.Errorf("KthNearest(0)[%d] = %d, want 0", i, v)
		}
	}
}

func TestKthSmallest(t *testing.T) {
	cases := []struct {
		xs   []int
		r    int
		want int
	}{
		{[]int{5, 1, 3}, 1, 1},
		{[]int{5, 1, 3}, 2, 3},
		{[]int{5, 1, 3}, 3, 5},
		{[]int{5, 1, 3}, 9, 5},
		{[]int{2}, 1, 2},
		{nil, 1, 0},
	}
	for _, c := range cases {
		xs := append([]int(nil), c.xs...)
		if got := kthSmallest(xs, c.r); got != c.want {
			t.Errorf("kthSmallest(%v, %d) = %d, want %d", c.xs, c.r, got, c.want)
		}
	}
}

// TestMatrixParallelMatchesSerial builds a matrix large enough to take
// the parallel path and cross-checks every entry against Distance.
func TestMatrixParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tab := randomTable(rng, parallelThreshold+40, 5, 3)
	m := NewMatrix(tab)
	for trial := 0; trial < 2000; trial++ {
		i, j := rng.Intn(tab.Len()), rng.Intn(tab.Len())
		if want := Distance(tab.Row(i), tab.Row(j)); m.Dist(i, j) != want {
			t.Fatalf("Dist(%d,%d) = %d, want %d", i, j, m.Dist(i, j), want)
		}
	}
}

func TestMatrixFuncWidensPastInt16(t *testing.T) {
	// A metric whose distances exceed math.MaxInt16 (e.g. heavily
	// weighted columns) must widen to int32 storage, not silently
	// truncate.
	n := 6
	dist := func(i, j int) int {
		if i == j {
			return 0
		}
		return 40000 + (i+j)*1000
	}
	m := funcMatrix(t, n, dist)
	if !m.Wide() {
		t.Fatal("matrix with distances > MaxInt16 did not widen")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0
			if i != j {
				lo, hi := i, j
				if lo > hi {
					lo, hi = hi, lo
				}
				want = dist(lo, hi)
			}
			if m.Dist(i, j) != want {
				t.Fatalf("Dist(%d,%d) = %d, want %d", i, j, m.Dist(i, j), want)
			}
		}
	}
	if m.MaxDist() != 40000+(4+5)*1000 {
		t.Fatalf("MaxDist = %d", m.MaxDist())
	}
}

func TestMatrixFuncNarrowStaysNarrow(t *testing.T) {
	m := funcMatrix(t, 4, func(i, j int) int { return i + j })
	if m.Wide() {
		t.Fatal("small distances should keep int16 storage")
	}
	if m.MaxDist() != 5 {
		t.Fatalf("MaxDist = %d, want 5", m.MaxDist())
	}
}

func TestMatrixFuncNegativeDistancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative distance did not panic")
		}
	}()
	funcMatrix(t, 3, func(i, j int) int { return -1 })
}

// funcMatrix is NewMatrixFuncCtx on one worker, the sequential fill,
// which runs on the calling goroutine (so a panicking distance can be
// recovered).
func funcMatrix(t *testing.T, n int, dist func(i, j int) int) *Matrix {
	t.Helper()
	m, err := NewMatrixFuncCtx(context.Background(), n, 1, dist)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatrixWideTableGuard(t *testing.T) {
	// A table wider than 32767 columns used to overflow the int16
	// distance storage; it must now get int32 storage up front and
	// report exact Hamming distances.
	if testing.Short() {
		t.Skip("builds a 40000-column schema")
	}
	m := 40000
	names := make([]string, m)
	for j := range names {
		names[j] = "c" + string(rune('a'+j%26)) + fmt.Sprint(j)
	}
	tab := relation.NewTable(relation.NewSchema(names...))
	rowA := make([]string, m)
	rowB := make([]string, m)
	rowC := make([]string, m)
	for j := 0; j < m; j++ {
		rowA[j] = "a"
		rowB[j] = "b"
		rowC[j] = "a"
	}
	// rowC differs from rowA on exactly the first 33000 columns.
	for j := 0; j < 33000; j++ {
		rowC[j] = "c"
	}
	for _, r := range [][]string{rowA, rowB, rowC} {
		if err := tab.AppendStrings(r...); err != nil {
			t.Fatal(err)
		}
	}
	mat := NewMatrix(tab)
	if !mat.Wide() {
		t.Fatal("matrix over a 40000-column table did not use wide storage")
	}
	if got := mat.Dist(0, 1); got != m {
		t.Fatalf("Dist(0,1) = %d, want %d", got, m)
	}
	if got := mat.Dist(0, 2); got != 33000 {
		t.Fatalf("Dist(0,2) = %d, want 33000 (int16 would have overflowed)", got)
	}
	if mat.MaxDist() != m {
		t.Fatalf("MaxDist = %d, want %d", mat.MaxDist(), m)
	}
}

func TestNewMatrixWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, parallelThreshold+20, 6, 4)
	ref, err := NewMatrixCtx(context.Background(), tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, math.MaxInt} {
		m, err := NewMatrixCtx(context.Background(), tab, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tab.Len(); i++ {
			for j := 0; j < tab.Len(); j++ {
				if m.Dist(i, j) != ref.Dist(i, j) {
					t.Fatalf("workers=%d: Dist(%d,%d) = %d, want %d", workers, i, j, m.Dist(i, j), ref.Dist(i, j))
				}
			}
		}
		if m.MaxDist() != ref.MaxDist() {
			t.Fatalf("workers=%d: MaxDist = %d, want %d", workers, m.MaxDist(), ref.MaxDist())
		}
	}
}

// TestMatrixCtx pins the cancellable fill: a live context produces the
// same matrix as the plain constructors, a pre-cancelled one aborts
// with a wrapped ctx error at both worker counts.
func TestMatrixCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, parallelThreshold+10, 4, 3)
	want := NewMatrix(tab)
	got, err := NewMatrixCtx(context.Background(), tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.Len(); i++ {
		for j := 0; j < tab.Len(); j++ {
			if got.Dist(i, j) != want.Dist(i, j) {
				t.Fatalf("Dist(%d,%d) = %d, want %d", i, j, got.Dist(i, j), want.Dist(i, j))
			}
		}
	}
	if got.MaxDist() != want.MaxDist() {
		t.Fatalf("MaxDist = %d, want %d", got.MaxDist(), want.MaxDist())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := NewMatrixCtx(ctx, tab, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
