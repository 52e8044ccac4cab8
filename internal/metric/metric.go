// Package metric implements the distance of Definition 4.1 and the group
// diameter machinery that drives both of the paper's approximation
// algorithms.
//
// For u, v ∈ Σ^m the distance d(u, v) = |{j : u[j] ≠ v[j]}| is the number
// of coordinates on which the vectors disagree — the Hamming distance on
// symbol codes. The diameter of a set S is max_{u,v∈S} d(u, v). The
// paper notes (and TestDistanceIsMetric verifies) that d is a metric.
package metric

import (
	"context"
	"fmt"
	"math"
	"slices"

	"kanon/internal/par"
	"kanon/internal/relation"
)

// Distance returns d(u, v), the number of coordinates where the rows
// differ. Suppressed entries (relation.Star) compare like any other
// symbol: star equals star and differs from every concrete value. The
// paper only ever measures distance on un-suppressed vectors, but this
// convention makes the function total.
func Distance(u, v relation.Row) int {
	d := 0
	for j := range u {
		if u[j] != v[j] {
			d++
		}
	}
	return d
}

// Diameter returns the diameter of the set of rows at the given indices
// of t: the maximum pairwise distance. The diameter of an empty or
// singleton set is 0.
func Diameter(t *relation.Table, indices []int) int {
	best := 0
	for a := 0; a < len(indices); a++ {
		ra := t.Row(indices[a])
		for b := a + 1; b < len(indices); b++ {
			if d := Distance(ra, t.Row(indices[b])); d > best {
				best = d
			}
		}
	}
	return best
}

// Matrix is a precomputed symmetric distance matrix over the rows of a
// table. Both approximation algorithms consult pairwise distances
// heavily; precomputing them once turns the inner loops into table
// lookups.
//
// Storage is int16 (narrow) while every distance fits, which is the
// common Hamming case (d ≤ m and tables rarely have thousands of
// columns); it is int32 (wide) when a distance exceeds math.MaxInt16
// — tables with m > 32767 columns, or weighted metrics whose column
// weights sum past int16 — instead of silently overflowing. The width
// is transparent to every reader.
type Matrix struct {
	n    int
	d    []int16 // narrow row-major n×n storage; nil when wide
	wide []int32 // wide storage; nil unless a distance exceeds int16
	maxD int     // largest distance stored (counting-sort bucket bound)
}

// maxNarrow is the largest distance the narrow int16 storage can hold.
const maxNarrow = math.MaxInt16

// parallelThreshold is the row count from which the matrix fills fan
// the O(n²) distance computation out over workers. Below it the
// goroutine overhead outweighs the work.
const parallelThreshold = 256

// fillRows runs row(i) for every row i of an n-row matrix on
// par.Workers(workers, n) workers, one below parallelThreshold rows,
// and returns the largest distance any row reported. row(i) writes
// only the cells (i, j) and (j, i) with j > i, so rows fill disjoint
// cells and the matrix is byte-identical for every worker count. ctx
// is polled once per row (cheap next to a row's O(n) distances), so a
// fill on a large table aborts promptly instead of running to
// completion after its caller gave up; the error then wraps ctx.Err().
func fillRows(ctx context.Context, n, workers int, row func(i int) int) (int, error) {
	if n < parallelThreshold {
		workers = 1
	}
	maxes := make([]int, par.Workers(workers, n)) // per worker
	par.For(n, len(maxes), func(w, i int) {
		if ctx.Err() != nil {
			return // drain the remaining rows cheaply; checked below
		}
		maxes[w] = max(maxes[w], row(i))
	})
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("metric: distance matrix: %w", err)
	}
	return slices.Max(maxes), nil
}

// NewMatrixFuncCtx builds a matrix from an arbitrary symmetric distance
// function over indices 0..n−1. Used by the generalization extension,
// whose per-cell costs come from hierarchy trees rather than symbol
// equality, and by the column-weighted metric; any metric works with
// the cover machinery. The fill polls ctx once per row and shards rows
// across workers (0 or negative means all CPUs, 1 fills sequentially
// in row order). Because an arbitrary metric's range is unknown up
// front, the fill stages into int32 and narrows to int16 afterwards
// when every distance fits; the result is identical for every worker
// count. Negative or int32-overflowing distances panic (they would
// corrupt every downstream algorithm silently otherwise). A non-nil
// error wraps ctx.Err().
func NewMatrixFuncCtx(ctx context.Context, n, workers int, dist func(i, j int) int) (*Matrix, error) {
	wide := make([]int32, n*n)
	maxD, err := fillRows(ctx, n, workers, func(i int) int {
		rowMax := 0
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if v < 0 || v > math.MaxInt32 {
				panic(fmt.Sprintf("metric: distance d(%d,%d) = %d outside [0, MaxInt32]", i, j, v))
			}
			rowMax = max(rowMax, v)
			wide[i*n+j] = int32(v)
			wide[j*n+i] = int32(v)
		}
		return rowMax
	})
	if err != nil {
		return nil, err
	}
	m := &Matrix{n: n, maxD: maxD}
	if m.maxD > maxNarrow {
		m.wide = wide
		return m, nil
	}
	m.d = make([]int16, n*n)
	for i, v := range wide {
		m.d[i] = int16(v)
	}
	return m, nil
}

// NewMatrix computes the full pairwise distance matrix of t over all
// CPUs: NewMatrixCtx without cancellation, which cannot fail then.
func NewMatrix(t *relation.Table) *Matrix {
	m, _ := NewMatrixCtx(context.Background(), t, 0)
	return m
}

// NewMatrixCtx computes the full pairwise distance matrix of t. Rows
// are filled across workers (0 or negative means all CPUs, 1 forces
// the sequential fill); each row owns disjoint cells of the output,
// so it is byte-identical for every worker count. The fill polls ctx
// once per row; a non-nil error wraps ctx.Err(), and the partially
// filled matrix is not returned. The output is unaffected by ctx.
func NewMatrixCtx(ctx context.Context, t *relation.Table, workers int) (*Matrix, error) {
	n := t.Len()
	m := &Matrix{n: n}
	// The Hamming distance is bounded by the degree; tables wider than
	// int16 get wide storage up front instead of overflowing (the
	// satellite guard for m > 32767 columns).
	if t.Degree() > maxNarrow {
		m.wide = make([]int32, n*n)
	} else {
		m.d = make([]int16, n*n)
	}
	maxD, err := fillRows(ctx, n, workers, func(i int) int {
		ri, rowMax := t.Row(i), 0
		for j := i + 1; j < n; j++ {
			d := Distance(ri, t.Row(j))
			rowMax = max(rowMax, d)
			if m.wide != nil {
				m.wide[i*n+j] = int32(d)
				m.wide[j*n+i] = int32(d)
			} else {
				m.d[i*n+j] = int16(d)
				m.d[j*n+i] = int16(d)
			}
		}
		return rowMax
	})
	if err != nil {
		return nil, err
	}
	m.maxD = maxD
	return m, nil
}

// Len reports the number of rows the matrix covers.
func (m *Matrix) Len() int { return m.n }

// Dist returns d(row i, row j).
func (m *Matrix) Dist(i, j int) int {
	if m.wide != nil {
		return int(m.wide[i*m.n+j])
	}
	return int(m.d[i*m.n+j])
}

// MaxDist returns the largest distance stored anywhere in the matrix.
// The counting-sort kernels use it to bound bucket counts.
func (m *Matrix) MaxDist() int { return m.maxD }

// Wide reports whether the matrix needed int32 storage (some distance
// exceeded math.MaxInt16).
func (m *Matrix) Wide() bool { return m.wide != nil }

// DistRow copies the cells (center, lo), …, (center, lo+len(out)−1)
// of the matrix into out — the RowFiller fast path the cover package
// uses instead of one Dist call per cell.
func (m *Matrix) DistRow(center, lo int, out []int32) {
	base := center*m.n + lo
	if m.wide != nil {
		copy(out, m.wide[base:base+len(out)])
		return
	}
	for v, d := range m.d[base : base+len(out)] {
		out[v] = int32(d)
	}
}

// Diameter returns the diameter of the index set using precomputed
// distances.
func (m *Matrix) Diameter(indices []int) int {
	best := 0
	for a := 0; a < len(indices); a++ {
		ia := indices[a]
		for b := a + 1; b < len(indices); b++ {
			if d := m.Dist(ia, indices[b]); d > best {
				best = d
			}
		}
	}
	return best
}

// DiameterWith returns the diameter of indices ∪ {extra}, given the
// diameter of indices, in O(|indices|) — the incremental step used by
// the exhaustive-family enumerator.
func (m *Matrix) DiameterWith(indices []int, current int, extra int) int {
	best := current
	for _, i := range indices {
		if d := m.Dist(i, extra); d > best {
			best = d
		}
	}
	return best
}

// Ball returns the indices v with d(center, v) ≤ radius, in index order.
// This is the paper's S_{c,i} (§4.3).
func (m *Matrix) Ball(center, radius int) []int {
	var out []int
	for v := 0; v < m.n; v++ {
		if m.Dist(center, v) <= radius {
			out = append(out, v)
		}
	}
	return out
}

// KthNearest returns, for each row i, the distance to its r-th nearest
// other row (r ≥ 1). Every k-group containing i must contain k−1 other
// rows, each of which forces at least d(i, ·) suppressed coordinates on
// i; hence KthNearest(k−1) is a per-row lower bound used by the
// branch-and-bound exact solver.
func (m *Matrix) KthNearest(r int) []int {
	out := make([]int, m.n)
	if r <= 0 {
		return out
	}
	// Counting sort over maxD+1 buckets: one O(n) histogram pass per
	// row instead of the O(r·n) selection scan. Metrics whose range
	// dwarfs n (heavily weighted columns) fall back to selection rather
	// than allocating giant bucket arrays.
	if m.maxD <= 8*m.n+1024 {
		cnt := make([]int32, m.maxD+1)
		for i := 0; i < m.n; i++ {
			for j := range cnt {
				cnt[j] = 0
			}
			for j := 0; j < m.n; j++ {
				if j != i {
					cnt[m.Dist(i, j)]++
				}
			}
			out[i] = kthFromCounts(cnt, r)
		}
		return out
	}
	buf := make([]int, 0, m.n-1)
	for i := 0; i < m.n; i++ {
		buf = buf[:0]
		for j := 0; j < m.n; j++ {
			if j != i {
				buf = append(buf, m.Dist(i, j))
			}
		}
		out[i] = kthSmallest(buf, r)
	}
	return out
}

// kthSmallest returns the r-th smallest element (1-based) of xs,
// mutating xs. If r > len(xs) it returns the maximum.
func kthSmallest(xs []int, r int) int {
	if len(xs) == 0 {
		return 0
	}
	if r > len(xs) {
		r = len(xs)
	}
	// Simple partial selection sort: r is tiny (k−1 ≤ a handful).
	for a := 0; a < r; a++ {
		min := a
		for b := a + 1; b < len(xs); b++ {
			if xs[b] < xs[min] {
				min = b
			}
		}
		xs[a], xs[min] = xs[min], xs[a]
	}
	return xs[r-1]
}
