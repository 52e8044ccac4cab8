package metric

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"kanon/internal/relation"
)

// kernelTable builds a random table whose column alphabets and star
// density are drawn per column, so both BitKernel layouts appear: small
// alphabets pack one-hot, alphabets wider than the 64-bit word fall
// back to packed codes.
func kernelTable(rng *rand.Rand, n, m int, maxSigma int, starP float64) *relation.Table {
	names := make([]string, m)
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
	}
	tab := relation.NewTable(relation.NewSchema(names...))
	sigma := make([]int, m)
	for j := range sigma {
		sigma[j] = 1 + rng.Intn(maxSigma)
	}
	for i := 0; i < n; i++ {
		row := make([]string, m)
		for j := range row {
			if rng.Float64() < starP {
				row[j] = relation.StarString
			} else {
				row[j] = strconv.Itoa(rng.Intn(sigma[j]))
			}
		}
		if err := tab.AppendStrings(row...); err != nil {
			panic(err)
		}
	}
	return tab
}

// kernelShapes spans the layouts the equivalence suite must cover:
// one-hot-only, the packed high-cardinality fallback, wide tables with
// m > 64 columns, and star-heavy rows.
var kernelShapes = []struct {
	name     string
	n, m     int
	maxSigma int
	starP    float64
}{
	{"small_onehot", 40, 4, 5, 0.1},
	{"high_cardinality", 60, 3, 200, 0.05},
	{"wide_m70", 30, 70, 4, 0.1},
	{"star_heavy", 50, 6, 3, 0.5},
	{"mixed", 80, 9, 90, 0.15},
}

// TestKernelEquivalence is the cross-kernel property suite: for random
// tables over every shape, the BitKernel must agree with the row-wise
// Distance definition and with the dense Matrix on every interface
// method, under workers 1 and 4.
func TestKernelEquivalence(t *testing.T) {
	for _, shape := range kernelShapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(shape.name)) * 7919))
			tab := kernelTable(rng, shape.n, shape.m, shape.maxSigma, shape.starP)
			for _, workers := range []int{1, 4} {
				mat, err := NewMatrixCtx(context.Background(), tab, workers)
				if err != nil {
					t.Fatalf("NewMatrixCtx: %v", err)
				}
				bit, err := NewBitKernelCtx(context.Background(), tab)
				if err != nil {
					t.Fatalf("NewBitKernelCtx: %v", err)
				}
				checkKernelsAgree(t, tab, mat, bit, rng)
			}
		})
	}
}

func checkKernelsAgree(t *testing.T, tab *relation.Table, mat *Matrix, bit *BitKernel, rng *rand.Rand) {
	t.Helper()
	n := tab.Len()
	if bit.Len() != n || mat.Len() != n {
		t.Fatalf("Len: matrix %d, bitkernel %d, want %d", mat.Len(), bit.Len(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := Distance(tab.Row(i), tab.Row(j))
			if got := bit.Dist(i, j); got != want {
				t.Fatalf("BitKernel.Dist(%d,%d) = %d, want %d", i, j, got, want)
			}
			if got := mat.Dist(i, j); got != want {
				t.Fatalf("Matrix.Dist(%d,%d) = %d, want %d", i, j, got, want)
			}
			if want > bit.MaxDist() {
				t.Fatalf("BitKernel.MaxDist() = %d below realized distance %d", bit.MaxDist(), want)
			}
		}
	}

	// DistRow agreement (both kernels implement RowFiller), over whole
	// rows and over ranges that start and end inside the table.
	rowM, rowB := make([]int32, n), make([]int32, n)
	for _, c := range []int{0, n / 2, n - 1} {
		for _, r := range [][2]int{{0, n}, {n / 3, n}, {1, n / 2}, {n - 1, n}, {n / 2, n / 2}} {
			lo, hi := r[0], r[1]
			mat.DistRow(c, lo, rowM[:hi-lo])
			bit.DistRow(c, lo, rowB[:hi-lo])
			for i := range rowM[:hi-lo] {
				want := int32(Distance(tab.Row(c), tab.Row(lo+i)))
				if rowM[i] != want || rowB[i] != want {
					t.Fatalf("DistRow(%d, %d)[%d]: matrix %d, bitkernel %d, want %d", c, lo, i, rowM[i], rowB[i], want)
				}
			}
		}
	}

	// Balls at every radius up to MaxDist for sampled centers.
	for trial := 0; trial < 8; trial++ {
		c := rng.Intn(n)
		for r := 0; r <= bit.MaxDist(); r++ {
			bm, bb := mat.Ball(c, r), bit.Ball(c, r)
			if len(bm) != len(bb) {
				t.Fatalf("Ball(%d,%d): matrix %d members, bitkernel %d", c, r, len(bm), len(bb))
			}
			for i := range bm {
				if bm[i] != bb[i] {
					t.Fatalf("Ball(%d,%d)[%d]: matrix %d, bitkernel %d", c, r, i, bm[i], bb[i])
				}
			}
		}
	}

	// Diameter and DiameterWith over random subsets.
	for trial := 0; trial < 12; trial++ {
		size := 1 + rng.Intn(n-1)
		idx := rng.Perm(n)[:size]
		dm, db := mat.Diameter(idx), bit.Diameter(idx)
		if dm != db {
			t.Fatalf("Diameter(%v): matrix %d, bitkernel %d", idx, dm, db)
		}
		extra := rng.Intn(n)
		wm := mat.DiameterWith(idx, dm, extra)
		wb := bit.DiameterWith(idx, db, extra)
		if wm != wb {
			t.Fatalf("DiameterWith(%v,%d,%d): matrix %d, bitkernel %d", idx, dm, extra, wm, wb)
		}
	}

	// KthNearest for every meaningful rank.
	for r := 1; r < n; r += 1 + n/7 {
		km, kb := mat.KthNearest(r), bit.KthNearest(r)
		for i := range km {
			if km[i] != kb[i] {
				t.Fatalf("KthNearest(%d)[%d]: matrix %d, bitkernel %d", r, i, km[i], kb[i])
			}
		}
	}
}

func TestChoiceParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Choice
		ok   bool
	}{
		{"auto", Auto, true},
		{"", Auto, true},
		{"dense", Dense, true},
		{"bitset", Bitset, true},
		{"matrix", 0, false},
	}
	for _, c := range cases {
		got, err := ParseChoice(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseChoice(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, c := range []Choice{Auto, Dense, Bitset} {
		back, err := ParseChoice(c.String())
		if err != nil || back != c {
			t.Errorf("ParseChoice(%v.String()) = %v, %v; want identity", c, back, err)
		}
	}
}

func TestChoiceResolve(t *testing.T) {
	if got := Auto.Resolve(AutoBitsetThreshold - 1); got != Dense {
		t.Errorf("Auto.Resolve(small) = %v, want Dense", got)
	}
	if got := Auto.Resolve(AutoBitsetThreshold); got != Bitset {
		t.Errorf("Auto.Resolve(threshold) = %v, want Bitset", got)
	}
	if got := Dense.Resolve(1 << 20); got != Dense {
		t.Errorf("Dense.Resolve stays Dense, got %v", got)
	}
	if got := Bitset.Resolve(2); got != Bitset {
		t.Errorf("Bitset.Resolve stays Bitset, got %v", got)
	}
}

func TestNewKernelCtxSelectsBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := kernelTable(rng, 16, 4, 4, 0.1)
	k, err := NewKernelCtx(context.Background(), tab, Auto, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.(*Matrix); !ok {
		t.Errorf("Auto on a small table built %T, want *Matrix", k)
	}
	k, err = NewKernelCtx(context.Background(), tab, Bitset, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.(*BitKernel); !ok {
		t.Errorf("forced Bitset built %T, want *BitKernel", k)
	}
}

func TestBitKernelCtxCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := kernelTable(rng, 4096, 4, 4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewBitKernelCtx(ctx, tab); !errors.Is(err, context.Canceled) {
		t.Errorf("NewBitKernelCtx on a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestNewMatrixFuncCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewMatrixFuncCtx(ctx, 64, 1, func(i, j int) int { return 1 })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("NewMatrixFuncCtx on a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestNewMatrixFuncCtxMatchesSequential pins the parallel fills to the
// distance function, and so to the one-worker fill, for a nontrivial
// metric on a table large enough to run them.
func TestNewMatrixFuncCtxMatchesSequential(t *testing.T) {
	n := parallelThreshold + 37
	dist := func(i, j int) int { return (i*31 + j*17) % 23 }
	sym := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		return dist(i, j)
	}
	want := funcMatrix(t, n, sym)
	for _, workers := range []int{0, 3, 8, math.MaxInt} {
		got, err := NewMatrixFuncCtx(context.Background(), n, workers, sym)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := 0
				if i != j {
					d = sym(i, j)
				}
				if want.Dist(i, j) != d || got.Dist(i, j) != d {
					t.Fatalf("workers=%d: Dist(%d,%d) = %d, one worker %d, want %d",
						workers, i, j, got.Dist(i, j), want.Dist(i, j), d)
				}
			}
		}
		if got.MaxDist() != want.MaxDist() || got.Wide() != want.Wide() {
			t.Fatalf("workers=%d: MaxDist %d wide %v, one worker %d wide %v",
				workers, got.MaxDist(), got.Wide(), want.MaxDist(), want.Wide())
		}
	}
}

func TestRadixPackerMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := kernelTable(rng, 60, 6, 8, 0.2)
	pk := NewRadixPacker(tab)
	if pk == nil {
		t.Fatal("NewRadixPacker returned nil for a small-alphabet table")
	}
	n, m := tab.Len(), tab.Degree()
	projEqual := func(i, j int, pat uint) bool {
		for c := 0; c < m; c++ {
			if pat&(1<<uint(c)) == 0 {
				continue
			}
			if tab.Row(i)[c] != tab.Row(j)[c] {
				return false
			}
		}
		return true
	}
	for pat := uint(0); pat < 1<<uint(m); pat += 5 {
		for trial := 0; trial < 50; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			keysEqual := pk.ProjectionKey(i, pat) == pk.ProjectionKey(j, pat)
			if keysEqual != projEqual(i, j, pat) {
				t.Fatalf("pattern %b rows (%d,%d): key equality %v, projection equality %v",
					pat, i, j, keysEqual, projEqual(i, j, pat))
			}
		}
	}
}

// TestBitKernelAllPackedColumns drives the layout where every column
// exceeds the one-hot word width, so the kernel has no bitset words at
// all and distances come entirely from the packed-code comparison.
func TestBitKernelAllPackedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c"}
	tab := relation.NewTable(relation.NewSchema(names...))
	for i := 0; i < 80; i++ {
		row := make([]string, len(names))
		for j := range row {
			if rng.Intn(10) == 0 {
				row[j] = relation.StarString
			} else {
				row[j] = strconv.Itoa(rng.Intn(120))
			}
		}
		if err := tab.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	// Force every alphabet past the one-hot cutoff.
	for j := 0; j < len(names); j++ {
		a := tab.Schema().Attribute(j)
		for v := 0; v < 120; v++ {
			a.Intern(strconv.Itoa(v))
		}
	}
	bit, err := NewBitKernelCtx(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	mat := NewMatrix(tab)
	checkKernelsAgree(t, tab, mat, bit, rng)
}

// TestBitKernelPackedLaneWidths drives the packed fallback through each
// lane width: nine columns whose largest code is top, so that a column's
// code+1 fills an 8-, 16- or 32-bit lane exactly or needs the next
// width, and nine columns take two words of 8-bit lanes. Rows are
// appended with AppendRow, codes near top and stars mixed in, and every
// distance and ranged fill must match the row-wise definition.
func TestBitKernelPackedLaneWidths(t *testing.T) {
	const m = 9
	names := make([]string, m)
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
	}
	for _, top := range []int32{63, 254, 255, 65534, 65535, math.MaxInt32 - 1} {
		rng := rand.New(rand.NewSource(int64(top)))
		tab := relation.NewTable(relation.NewSchema(names...))
		for i := 0; i < 40; i++ {
			row := make(relation.Row, m)
			for j := range row {
				switch v := rng.Intn(5); v {
				case 0:
					row[j] = relation.Star
				default:
					row[j] = top - int32(v-1)
				}
			}
			if i == 0 {
				row[0] = top
			}
			if err := tab.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		bit, err := NewBitKernelCtx(context.Background(), tab)
		if err != nil {
			t.Fatal(err)
		}
		if bit.packedCols != m {
			t.Fatalf("top %d: %d packed columns, want %d", top, bit.packedCols, m)
		}
		want := map[int32]uint{63: 8, 254: 8, 255: 16, 65534: 16, 65535: 32, math.MaxInt32 - 1: 32}[top]
		if bit.lanes.width != want {
			t.Fatalf("top %d: %d-bit lanes, want %d", top, bit.lanes.width, want)
		}
		checkKernelsAgree(t, tab, NewMatrix(tab), bit, rng)
	}
}

// TestKthNearestLargeRangeFallback pins the counting-sort cutoff: a
// metric whose range dwarfs n must take the selection path and still
// agree with a naive sort.
func TestKthNearestLargeRangeFallback(t *testing.T) {
	n := 20
	scale := 8*n + 2048 // maxD past the bucket cutoff
	dist := func(i, j int) int {
		if i == j {
			return 0
		}
		return ((i*13 + j*7) % 11) * scale / 11
	}
	sym := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		return dist(i, j)
	}
	mat := funcMatrix(t, n, sym)
	if mat.maxD <= 8*n+1024 {
		t.Fatalf("test metric range %d does not exceed the cutoff", mat.maxD)
	}
	for _, r := range []int{1, 3, n - 1, n + 5} {
		got := mat.KthNearest(r)
		for i := 0; i < n; i++ {
			ds := make([]int, 0, n-1)
			for j := 0; j < n; j++ {
				if j != i {
					ds = append(ds, sym(i, j))
				}
			}
			want := naiveKth(ds, r)
			if got[i] != want {
				t.Fatalf("KthNearest(%d)[%d] = %d, want %d", r, i, got[i], want)
			}
		}
	}
}

func naiveKth(ds []int, r int) int {
	s := append([]int(nil), ds...)
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	if r > len(s) {
		return s[len(s)-1]
	}
	return s[r-1]
}

// TestWideMatrixRowFillerAndKthNearest covers the int32 (widened)
// matrix's DistRow and counting-sort paths.
func TestWideMatrixRowFillerAndKthNearest(t *testing.T) {
	n := 12
	big := 40_000 // past MaxInt16 after doubling? No — directly > 32767 to force widening
	sym := func(i, j int) int {
		if i == j {
			return 0
		}
		return big + (i+j)%7
	}
	mat := funcMatrix(t, n, sym)
	if !mat.Wide() {
		t.Fatal("matrix did not widen past int16")
	}
	out := make([]int32, n)
	mat.DistRow(3, 0, out)
	for j := range out {
		if int(out[j]) != sym(3, j) {
			t.Fatalf("wide DistRow[%d] = %d, want %d", j, out[j], sym(3, j))
		}
	}
	mat.DistRow(5, 4, out[:n-6])
	for j, d := range out[:n-6] {
		if int(d) != sym(5, 4+j) {
			t.Fatalf("wide DistRow(5, 4)[%d] = %d, want %d", j, d, sym(5, 4+j))
		}
	}
	got := mat.KthNearest(2)
	for i := range got {
		ds := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				ds = append(ds, sym(i, j))
			}
		}
		if want := naiveKth(ds, 2); got[i] != want {
			t.Fatalf("wide KthNearest(2)[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestRadixPackerOverflowReturnsNil(t *testing.T) {
	// 11 columns of alphabet ~64 give (64+1)^11 ≈ 2^66 > 2^64 states.
	names := make([]string, 11)
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
	}
	tab := relation.NewTable(relation.NewSchema(names...))
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		row := make([]string, len(names))
		for j := range row {
			row[j] = strconv.Itoa(rng.Intn(64))
		}
		if err := tab.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	if pk := NewRadixPacker(tab); pk != nil {
		t.Error("NewRadixPacker should refuse a key space past uint64")
	}
}
