package metric

import (
	"context"
	"fmt"

	"kanon/internal/relation"
)

// Kernel is the read interface over pairwise row distances that the
// cover, core, algo, and exact layers consume. Two implementations
// exist: the dense precomputed Matrix (O(n²) memory, O(1) lookups) and
// the matrix-free BitKernel (O(n·m/64) memory, popcount lookups). Both
// return identical values for every query, so every solver is
// byte-identical across kernels; the choice is purely a time/memory
// trade-off.
type Kernel interface {
	// Len reports the number of rows the kernel covers.
	Len() int
	// Dist returns d(row i, row j).
	Dist(i, j int) int
	// MaxDist returns an upper bound on every pairwise distance, tight
	// enough to size counting-sort buckets (exact for Matrix, the
	// degree bound for BitKernel).
	MaxDist() int
	// Diameter returns the maximum pairwise distance within the index
	// set (0 for empty or singleton sets).
	Diameter(indices []int) int
	// DiameterWith returns the diameter of indices ∪ {extra} given the
	// diameter of indices, in O(|indices|).
	DiameterWith(indices []int, current int, extra int) int
	// Ball returns the indices v with d(center, v) ≤ radius, in index
	// order — the paper's S_{c,i} (§4.3).
	Ball(center, radius int) []int
	// KthNearest returns, for each row i, the distance to its r-th
	// nearest other row (r ≥ 1).
	KthNearest(r int) []int
}

// RowFiller is an optional fast path a Kernel may provide: fill out
// with one center's distances to the consecutive rows lo, lo+1, …,
// out[i] = d(center, lo+i), in a single pass (lo+len(out) ≤ Len()).
// The cover package uses it via type assertion, for whole rows
// (lo = 0, len(out) = Len()), for a center's distances to one tile of
// rows or to the rows after it within its own tile, and for a chunk
// of centers at a time; kernels without it are queried pairwise.
type RowFiller interface {
	DistRow(center, lo int, out []int32)
}

// Choice selects which kernel implementation NewKernelCtx builds.
type Choice int

const (
	// Auto picks Dense below AutoBitsetThreshold rows and Bitset at or
	// above it — small instances keep the O(1) lookups, large ones
	// avoid the O(n²) fill and footprint. algo.GreedyBall's lazy cover
	// overrides the size rule and builds Bitset at every size: it reads
	// distances only as rows, which the bitset kernel fills at least as
	// fast as the Matrix copies them.
	Auto Choice = iota
	// Dense always builds the precomputed Matrix.
	Dense
	// Bitset always builds the matrix-free BitKernel.
	Bitset
)

// AutoBitsetThreshold is the row count at and above which Auto selects
// the matrix-free kernel for callers that look distances up pair by
// pair (algo.GreedyBall's lazy cover takes the bitset kernel at every
// size). At n = 4096 the dense matrix is 32 MiB of int16 — already
// past L2/L3 on most hardware, so its O(1) lookups stop winning
// against popcount on cached bitset rows, while the fill alone costs
// an O(n²m) pass the bitset kernel never pays.
const AutoBitsetThreshold = 4096

// ParseChoice parses a kernel name as accepted by the -kernel flags:
// "auto", "dense", or "bitset".
func ParseChoice(s string) (Choice, error) {
	switch s {
	case "auto", "":
		return Auto, nil
	case "dense":
		return Dense, nil
	case "bitset":
		return Bitset, nil
	}
	return Auto, fmt.Errorf("metric: unknown kernel %q (want auto, dense, or bitset)", s)
}

// String renders the choice in ParseChoice's vocabulary.
func (c Choice) String() string {
	switch c {
	case Dense:
		return "dense"
	case Bitset:
		return "bitset"
	}
	return "auto"
}

// Resolve maps Auto to the concrete kernel a table of n rows gets.
func (c Choice) Resolve(n int) Choice {
	if c == Auto {
		if n >= AutoBitsetThreshold {
			return Bitset
		}
		return Dense
	}
	return c
}

// NewKernelCtx builds the distance kernel selected by choice for the
// Hamming metric over t's rows, polling ctx during construction (per
// row for the dense fill, per row block for the bitset packing).
// Workers bounds the dense fill's parallelism and is ignored by the
// bitset kernel, whose construction is a single O(n·m) pass. The
// returned error wraps ctx.Err().
func NewKernelCtx(ctx context.Context, t *relation.Table, choice Choice, workers int) (Kernel, error) {
	if choice.Resolve(t.Len()) == Bitset {
		return NewBitKernelCtx(ctx, t)
	}
	return NewMatrixCtx(ctx, t, workers)
}
