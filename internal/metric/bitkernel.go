package metric

import (
	"context"
	"fmt"
	"math/bits"

	"kanon/internal/relation"
)

// BitKernel is the matrix-free distance kernel: each row's symbol codes
// are packed into per-attribute equality bitsets and every distance is
// computed on the fly as d(u, v) = m − popcount(agree(u, v)). Memory is
// O(n·m/64) words instead of the Matrix's O(n²) cells, which is what
// lets the ball algorithms scale from thousands of rows to hundreds of
// thousands.
//
// Layout: column j with alphabet Σ_j gets |Σ_j|+1 consecutive bit
// slots — slot 0 for relation.Star, slot c+1 for symbol code c — and a
// row sets exactly one bit per column, at the slot of its value. Two
// rows agree on column j iff their bitsets share a set bit inside j's
// slot range, so the number of agreeing columns is the popcount of the
// AND of the two rows' words. Columns whose slot range would exceed
// maxOnehotWidth bits (high-cardinality attributes, e.g. near-unique
// identifiers) would bloat every row's bitset; they fall back to codes
// packed into equal-width lanes of 8, 16 or 32 bits, several columns a
// word, compared a word at a time.
type BitKernel struct {
	n, m int
	// One-hot block: words uint64s per row, covering onehotCols columns.
	words      int
	onehotCols int
	onehot     []uint64
	// Packed fallback: packedCols high-cardinality columns, a code v
	// stored as v+1 (Star is the zero lane) in a lane of lanes.width
	// bits, pwords words per row.
	packedCols int
	pwords     int
	lanes      codeLanes
	packed     []uint64
}

// codeLanes is the layout of the packed fallback's words: per lanes of
// width bits each; top holds every lane's top bit and low its other
// bits.
type codeLanes struct {
	width    uint
	per      int
	top, low uint64
}

// newCodeLanes picks the narrowest lane width of 8, 16 and 32 bits that
// holds v+1 for every code v < sigma.
func newCodeLanes(sigma int) codeLanes {
	width := uint(8)
	for uint64(sigma) >= 1<<width {
		width *= 2
	}
	all := uint64(1)<<width - 1
	top := ^uint64(0) / all << (width - 1)
	return codeLanes{width: width, per: 64 / int(width), top: top, low: ^top}
}

// differ counts the nonzero lanes of x, the columns on which the two
// XORed words disagree.
func (l codeLanes) differ(x uint64) int {
	return bits.OnesCount64(((x & l.low) + l.low | x) & l.top)
}

// maxOnehotWidth caps the bit-slot range of a one-hot column
// (|alphabet|+1 slots). One word per column keeps the per-row bitset at
// most m words; wider columns cost less as packed lanes.
const maxOnehotWidth = 64

// NewBitKernelCtx packs the rows of t into a matrix-free kernel. The
// O(n·m) packing pass polls ctx every 1024 rows; the returned error
// wraps ctx.Err().
//
// A column's alphabet is its schema's, widened to cover every code its
// rows hold: rows appended with AppendRow are not interned, so their
// codes may run past the schema's alphabet, and the kernel prices them
// as the dense Matrix does.
func NewBitKernelCtx(ctx context.Context, t *relation.Table) (*BitKernel, error) {
	n, m := t.Len(), t.Degree()
	b := &BitKernel{n: n, m: m}
	sch := t.Schema()
	sigma := make([]int, m)
	for j := range sigma {
		sigma[j] = sch.Attribute(j).AlphabetSize()
	}
	for _, row := range t.Rows() {
		for j, v := range row {
			sigma[j] = max(sigma[j], int(v)+1)
		}
	}
	var onehotIdx, packedIdx []int
	offsets := make([]int, 0, m) // bit offset of each one-hot column's slot 0
	bitWidth, packedSigma := 0, 0
	for j := 0; j < m; j++ {
		if w := sigma[j] + 1; w <= maxOnehotWidth {
			onehotIdx = append(onehotIdx, j)
			offsets = append(offsets, bitWidth)
			bitWidth += w
		} else {
			packedIdx = append(packedIdx, j)
			packedSigma = max(packedSigma, sigma[j])
		}
	}
	b.onehotCols = len(onehotIdx)
	b.packedCols = len(packedIdx)
	b.words = (bitWidth + 63) / 64
	b.onehot = make([]uint64, n*b.words)
	if b.packedCols > 0 {
		b.lanes = newCodeLanes(packedSigma)
		b.pwords = (b.packedCols + b.lanes.per - 1) / b.lanes.per
		b.packed = make([]uint64, n*b.pwords)
	}
	for i := 0; i < n; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("metric: bit kernel: %w", err)
			}
		}
		row := t.Row(i)
		w := b.onehot[i*b.words : (i+1)*b.words]
		for c, j := range onehotIdx {
			slot := offsets[c] + slotOf(row[j])
			w[slot>>6] |= 1 << (slot & 63)
		}
		pw := b.packed[i*b.pwords : (i+1)*b.pwords]
		for c, j := range packedIdx {
			pw[c/b.lanes.per] |= uint64(slotOf(row[j])) << (uint(c%b.lanes.per) * b.lanes.width)
		}
	}
	return b, nil
}

// slotOf maps a symbol code to its bit slot within the column's range,
// and to its value in a packed lane: Star to 0, code c to c+1.
func slotOf(code int32) int {
	if code == relation.Star {
		return 0
	}
	if code < 0 {
		panic(fmt.Sprintf("metric: invalid symbol code %d", code))
	}
	return int(code) + 1
}

// Len reports the number of rows the kernel covers.
func (b *BitKernel) Len() int { return b.n }

// Dist returns d(row i, row j): the one-hot columns contribute
// onehotCols − popcount(AND of the rows' words), the packed columns the
// number of lanes on which the rows' words differ.
func (b *BitKernel) Dist(i, j int) int {
	d := b.onehotCols
	if b.words > 0 {
		u := b.onehot[i*b.words : (i+1)*b.words]
		v := b.onehot[j*b.words : (j+1)*b.words : (j+1)*b.words]
		agree := 0
		for w, x := range u {
			agree += bits.OnesCount64(x & v[w])
		}
		d -= agree
	}
	if p := b.pwords; p > 0 {
		pu := b.packed[i*p : (i+1)*p]
		pv := b.packed[j*p : (j+1)*p : (j+1)*p]
		for q, x := range pu {
			d += b.lanes.differ(x ^ pv[q])
		}
	}
	return d
}

// MaxDist returns the degree m — the Hamming bound on every pairwise
// distance. It is an upper bound rather than the realized maximum (the
// kernel never runs an all-pairs pass); callers only use it to size
// counting-sort buckets and saturate diameter sweeps, where a bound is
// all that is needed.
func (b *BitKernel) MaxDist() int { return b.m }

// DistRow fills out[i] = d(center, lo+i) — the RowFiller fast path
// the cover package uses. It streams the rows' packed one-hot words
// once, in one loop whatever the row width, instead of calling Dist
// per pair.
func (b *BitKernel) DistRow(center, lo int, out []int32) {
	if w := b.words; w == 0 {
		clear(out) // no one-hot columns
	} else {
		u := b.onehot[center*w : (center+1)*w]
		v, j, agree := 0, 0, 0
		for _, x := range b.onehot[lo*w : (lo+len(out))*w] {
			agree += bits.OnesCount64(x & u[j])
			if j++; j == w {
				out[v] = int32(b.onehotCols - agree)
				v, j, agree = v+1, 0, 0
			}
		}
	}
	if p := b.pwords; p > 0 {
		pu := b.packed[center*p : (center+1)*p]
		for v := range out {
			d := 0
			for q, x := range b.packed[(lo+v)*p : (lo+v+1)*p] {
				d += b.lanes.differ(x ^ pu[q])
			}
			out[v] += int32(d)
		}
	}
}

// Diameter returns the maximum pairwise distance within the index set.
func (b *BitKernel) Diameter(indices []int) int {
	best := 0
	for a := 0; a < len(indices); a++ {
		ia := indices[a]
		for c := a + 1; c < len(indices); c++ {
			if d := b.Dist(ia, indices[c]); d > best {
				best = d
			}
		}
	}
	return best
}

// DiameterWith returns the diameter of indices ∪ {extra} given the
// diameter of indices, in O(|indices|).
func (b *BitKernel) DiameterWith(indices []int, current int, extra int) int {
	best := current
	for _, i := range indices {
		if d := b.Dist(i, extra); d > best {
			best = d
		}
	}
	return best
}

// Ball returns the indices v with d(center, v) ≤ radius, in index
// order, by one lazy scan of the center's distances — no n×n state.
func (b *BitKernel) Ball(center, radius int) []int {
	var out []int
	for v := 0; v < b.n; v++ {
		if b.Dist(center, v) <= radius {
			out = append(out, v)
		}
	}
	return out
}

// kthNearestTile is the center-block size of the tiled KthNearest pass:
// the block's bitset rows stay cache-hot while the j scan streams every
// row past them once per block.
const kthNearestTile = 64

// KthNearest returns, for each row i, the distance to its r-th nearest
// other row (r ≥ 1), matching Matrix.KthNearest exactly. Distances are
// histogrammed into MaxDist()+1 counting buckets per center; centers
// are processed in cache-blocked tiles so the O(n²) pair scan streams
// the packed rows instead of thrashing.
func (b *BitKernel) KthNearest(r int) []int {
	out := make([]int, b.n)
	if r <= 0 {
		return out
	}
	width := b.MaxDist() + 1
	cnt := make([]int32, kthNearestTile*width)
	for i0 := 0; i0 < b.n; i0 += kthNearestTile {
		i1 := i0 + kthNearestTile
		if i1 > b.n {
			i1 = b.n
		}
		for i := range cnt {
			cnt[i] = 0
		}
		for j := 0; j < b.n; j++ {
			for i := i0; i < i1; i++ {
				if i == j {
					continue
				}
				cnt[(i-i0)*width+b.Dist(i, j)]++
			}
		}
		for i := i0; i < i1; i++ {
			out[i] = kthFromCounts(cnt[(i-i0)*width:(i-i0+1)*width], r)
		}
	}
	return out
}

// kthFromCounts returns the r-th smallest value (1-based) of the
// multiset histogrammed in cnt (cnt[d] = multiplicity of d). If r
// exceeds the multiset size it returns the maximum; an empty multiset
// yields 0 — the same conventions as kthSmallest.
func kthFromCounts(cnt []int32, r int) int {
	seen := 0
	last := 0
	for d, c := range cnt {
		if c == 0 {
			continue
		}
		seen += int(c)
		last = d
		if seen >= r {
			return d
		}
	}
	return last
}
