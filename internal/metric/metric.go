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
	"runtime"
	"sync"
	"sync/atomic"

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

// DiameterRows is Diameter over explicit rows rather than table indices.
func DiameterRows(rows []relation.Row) int {
	best := 0
	for a := 0; a < len(rows); a++ {
		for b := a + 1; b < len(rows); b++ {
			if d := Distance(rows[a], rows[b]); d > best {
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
// columns); the matrix widens to int32 storage when a distance exceeds
// math.MaxInt16 — tables with m > 32767 columns, or weighted metrics
// whose column weights sum past int16 — instead of silently
// overflowing. The widening is transparent to every reader.
type Matrix struct {
	n    int
	d    []int16 // narrow row-major n×n storage; nil once widened
	wide []int32 // wide storage; nil unless a distance exceeded int16
	maxD int     // largest distance stored (counting-sort bucket bound)
}

// maxNarrow is the largest distance the narrow int16 storage can hold.
const maxNarrow = math.MaxInt16

// NewMatrixFunc builds a matrix from an arbitrary symmetric distance
// function over indices 0..n−1. Used by the generalization extension,
// whose per-cell costs come from hierarchy trees rather than symbol
// equality, and by the column-weighted metric; any metric works with
// the cover machinery. Distances that overflow int16 widen the storage;
// negative or int32-overflowing distances panic (they would corrupt
// every downstream algorithm silently otherwise).
func NewMatrixFunc(n int, dist func(i, j int) int) *Matrix {
	m := &Matrix{n: n, d: make([]int16, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.set(i, j, dist(i, j))
		}
	}
	return m
}

// NewMatrixFuncCtx is NewMatrixFunc with cancellation and parallelism:
// the fill polls ctx once per row and shards rows across workers (0 or
// negative means all CPUs), so the generalization and weighted paths
// abort as promptly as NewMatrixCtx does. Because an arbitrary metric's
// range is unknown up front, the fill stages into int32 and narrows to
// int16 afterwards when every distance fits; the result is identical to
// NewMatrixFunc for every worker count. A non-nil error wraps
// ctx.Err().
func NewMatrixFuncCtx(ctx context.Context, n, workers int, dist func(i, j int) int) (*Matrix, error) {
	wide := make([]int32, n*n)
	var sharedMax atomic.Int64
	fill := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		localMax := 0
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if v < 0 || v > math.MaxInt32 {
				panic(fmt.Sprintf("metric: distance d(%d,%d) = %d outside [0, MaxInt32]", i, j, v))
			}
			if v > localMax {
				localMax = v
			}
			wide[i*n+j] = int32(v)
			wide[j*n+i] = int32(v)
		}
		for {
			cur := sharedMax.Load()
			if int64(localMax) <= cur || sharedMax.CompareAndSwap(cur, int64(localMax)) {
				return nil
			}
		}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	var firstErr error
	if workers <= 1 || n < parallelThreshold {
		for i := 0; i < n && firstErr == nil; i++ {
			firstErr = fill(i)
		}
	} else {
		// Interleave rows across workers like NewMatrixCtx: row i costs
		// ~(n−i) pairs, so striding balances the load queue-free.
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					if errs[w] = fill(i); errs[w] != nil {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("metric: distance matrix: %w", firstErr)
	}
	m := &Matrix{n: n, maxD: int(sharedMax.Load())}
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

// set stores d(i, j) = d(j, i) = v, widening the backing array the
// first time a value exceeds the narrow range.
func (m *Matrix) set(i, j, v int) {
	if v < 0 || v > math.MaxInt32 {
		panic(fmt.Sprintf("metric: distance d(%d,%d) = %d outside [0, MaxInt32]", i, j, v))
	}
	if v > m.maxD {
		m.maxD = v
	}
	if m.wide == nil && v > maxNarrow {
		m.widen()
	}
	if m.wide != nil {
		m.wide[i*m.n+j] = int32(v)
		m.wide[j*m.n+i] = int32(v)
		return
	}
	m.d[i*m.n+j] = int16(v)
	m.d[j*m.n+i] = int16(v)
}

// widen migrates narrow storage to int32 in place.
func (m *Matrix) widen() {
	m.wide = make([]int32, len(m.d))
	for i, v := range m.d {
		m.wide[i] = int32(v)
	}
	m.d = nil
}

// parallelThreshold is the row count above which NewMatrix fans the
// O(n²m) distance computation out over all CPUs. Below it the goroutine
// overhead outweighs the work.
const parallelThreshold = 256

// NewMatrix computes the full pairwise distance matrix of t over all
// CPUs: NewMatrixCtx without cancellation, which cannot fail then.
func NewMatrix(t *relation.Table) *Matrix {
	m, _ := NewMatrixCtx(context.Background(), t, 0)
	return m
}

// NewMatrixCtx computes the full pairwise distance matrix of t. Rows
// are filled across workers (0 or negative means runtime.NumCPU(), 1
// forces the sequential fill); each worker owns disjoint rows of the
// output, so it is byte-identical for every worker count. The fill
// polls ctx once per row (cheap next to a row's O(n·m) distance work),
// so an O(n²m) fill on a large table aborts promptly instead of
// running to completion after its caller gave up. A non-nil error
// wraps ctx.Err(); the partially filled matrix is not returned. The
// output is unaffected by ctx.
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
	var sharedMax atomic.Int64
	fill := func(lo, hi int) error {
		localMax := 0
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			ri := t.Row(i)
			for j := i + 1; j < n; j++ {
				d := Distance(ri, t.Row(j))
				if d > localMax {
					localMax = d
				}
				if m.wide != nil {
					m.wide[i*n+j] = int32(d)
					m.wide[j*n+i] = int32(d)
				} else {
					m.d[i*n+j] = int16(d)
					m.d[j*n+i] = int16(d)
				}
			}
		}
		for {
			cur := sharedMax.Load()
			if int64(localMax) <= cur || sharedMax.CompareAndSwap(cur, int64(localMax)) {
				return nil
			}
		}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < parallelThreshold {
		if err := fill(0, n); err != nil {
			return nil, fmt.Errorf("metric: distance matrix: %w", err)
		}
		m.maxD = int(sharedMax.Load())
		return m, nil
	}
	var wg sync.WaitGroup
	// Row i costs ~(n−i) pairs; interleave rows across workers so the
	// load balances without a work queue. Workers observe cancellation
	// independently; first error wins.
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if errs[w] = fill(i, i+1); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("metric: distance matrix: %w", err)
		}
	}
	m.maxD = int(sharedMax.Load())
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

// DistRow copies row center of the matrix into out — the RowFiller
// fast path the cover package's radius kernels use instead of n Dist
// calls.
func (m *Matrix) DistRow(center int, out []int32) {
	if m.wide != nil {
		copy(out, m.wide[center*m.n:(center+1)*m.n])
		return
	}
	row := m.d[center*m.n : (center+1)*m.n]
	for v, d := range row {
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
