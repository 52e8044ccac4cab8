// Package attribute implements the k-ANONYMITY-ON-ATTRIBUTES problem of
// §3.1: choose a minimum set of whole columns to suppress so that the
// projection of the table onto the surviving columns is k-anonymous.
// The paper proves this variant NP-hard for k > 2 even over a boolean
// alphabet (Theorem 3.2); this package provides the exact solver used
// as E5 ground truth (subset search in increasing cardinality, feasible
// for the moderate m of the reduction instances). The greedy heuristic
// for larger tables is baseline.SuppressColumns.
package attribute

import (
	"fmt"
	"math/bits"

	"kanon/internal/relation"
)

// Result is an attribute-suppression solution: the columns dropped and
// whether the value is proven minimum.
type Result struct {
	Dropped []int
	Optimal bool
}

// IsKAnonymousProjection reports whether the table projected onto the
// columns NOT in drop is k-anonymous.
func IsKAnonymousProjection(t *relation.Table, drop []int, k int) bool {
	m := t.Degree()
	dropped := make([]bool, m)
	for _, j := range drop {
		if j < 0 || j >= m {
			return false
		}
		dropped[j] = true
	}
	return projectionOK(t, dropped, k)
}

func projectionOK(t *relation.Table, dropped []bool, k int) bool {
	counts := make(map[string]int, t.Len())
	keys := make([]string, t.Len())
	for i := 0; i < t.Len(); i++ {
		key := projKey(t.Row(i), dropped)
		keys[i] = key
		counts[key]++
	}
	for _, key := range keys {
		if counts[key] < k {
			return false
		}
	}
	return true
}

func projKey(r relation.Row, dropped []bool) string {
	b := make([]byte, 0, len(r)*3)
	for j, v := range r {
		if dropped[j] {
			continue
		}
		b = append(b, byte(j), byte(v), byte(v>>8))
	}
	return string(b)
}

// MaxExactColumns bounds the exact solver's subset enumeration (2^m).
const MaxExactColumns = 24

// Exact finds a minimum attribute-suppression set by enumerating column
// subsets in increasing cardinality. Requires m ≤ MaxExactColumns and
// n ≥ k (otherwise no suppression suffices).
func Exact(t *relation.Table, k int) (*Result, error) {
	m := t.Degree()
	if k < 1 {
		return nil, fmt.Errorf("attribute: k = %d < 1", k)
	}
	if t.Len() < k {
		return nil, fmt.Errorf("attribute: n = %d < k = %d", t.Len(), k)
	}
	if m > MaxExactColumns {
		return nil, fmt.Errorf("attribute: m = %d exceeds exact limit %d", m, MaxExactColumns)
	}
	dropped := make([]bool, m)
	// Enumerate masks grouped by popcount so the first hit is minimum.
	// For the sizes used in experiments (m ≤ 20) a popcount bucket scan
	// over all 2^m masks is simplest and fast enough.
	for size := 0; size <= m; size++ {
		for mask := 0; mask < 1<<uint(m); mask++ {
			if bits.OnesCount(uint(mask)) != size {
				continue
			}
			for j := 0; j < m; j++ {
				dropped[j] = mask&(1<<uint(j)) != 0
			}
			if projectionOK(t, dropped, k) {
				return &Result{Dropped: maskColumns(mask, m), Optimal: true}, nil
			}
		}
	}
	// Dropping every column leaves the empty projection, under which
	// all n ≥ k rows are identical — so the loop always returns by
	// size = m; this is unreachable.
	return nil, fmt.Errorf("attribute: internal: exhausted subsets without a solution")
}

func maskColumns(mask, m int) []int {
	var out []int
	for j := 0; j < m; j++ {
		if mask&(1<<uint(j)) != 0 {
			out = append(out, j)
		}
	}
	if out == nil {
		out = []int{}
	}
	return out
}
