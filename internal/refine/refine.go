// Package refine post-optimizes a k-anonymity partition by local
// search. The paper's greedy algorithms optimize the diameter-sum
// surrogate (Lemma 4.1 ties it to the star count only up to a Θ(k)
// factor), so their output routinely leaves star-count slack on the
// table; this package closes part of that gap with three cost-direct
// moves that preserve feasibility:
//
//   - relocate: move a row from a group with > k members to another
//     group, when that lowers the total star count;
//   - swap: exchange two rows between groups;
//   - dissolve: disband a group with ≤ 2k−1 members, distributing its
//     rows over other groups (only when every destination keeps the
//     move profitable in aggregate).
//
// Local search is the natural "can the constant be improved in
// practice?" companion to §5's open question; experiment E10 measures
// what it buys on each algorithm's output. The refinement never
// increases cost and never breaks k-anonymity, so it is safe to apply
// unconditionally; the approximation guarantees of the input survive.
package refine

import (
	"context"
	"fmt"
	"math/bits"

	"kanon/internal/core"
	"kanon/internal/obs"
	"kanon/internal/relation"
)

// Options bounds the search.
type Options struct {
	// Ctx cancels or bounds the search: it is polled at every round
	// boundary and every ~1024 candidate-move evaluations, so even a
	// single O(n²) move scan aborts promptly. A cancelled call returns
	// an error wrapping ctx.Err(); the partition is left in a valid
	// (every move preserves feasibility) but partially refined state.
	// Nil means context.Background().
	Ctx context.Context
	// MaxRounds caps full passes over all rows (default 8).
	MaxRounds int
	// NoDissolve disables the group-dissolving move.
	NoDissolve bool
}

// pollEvery is how many candidate evaluations pass between context
// polls; a power of two so the check is a mask, not a division. A
// variable only so that tests can poll at every candidate.
var pollEvery = 1024

// Stats reports what the search did.
type Stats struct {
	Rounds     int
	Relocates  int
	Swaps      int
	Dissolves  int
	CostBefore int
	CostAfter  int
}

// Record adds the search's work to sp's tracer as three counters:
// refine.rounds, refine.moves (relocates, swaps and dissolves) and
// refine.cost_saved (CostBefore − CostAfter). On a nil span it records
// nothing and allocates nothing.
func (st *Stats) Record(sp *obs.Span) {
	sp.Counter("refine.rounds").Add(int64(st.Rounds))
	sp.Counter("refine.moves").Add(int64(st.Relocates + st.Swaps + st.Dissolves))
	sp.Counter("refine.cost_saved").Add(int64(st.CostBefore - st.CostAfter))
}

// lanes is the packed layout of a call's rows and signatures: column c
// sits in word c/per, at bit offset (c%per)·width, and a word holds per
// = 64/width lanes. A code v is stored as v+1, so relation.Star is the
// zero lane, and the all-ones lane, mixed, marks a signature column on
// which a set's members disagree: mixed never equals a row value, and a
// pre-starred cell prices like any other value, as it does in core.Anon.
// Lanes past column m−1 are zero in rows and signatures alike, so they
// never differ and are never mixed.
type lanes struct {
	width uint   // bits per lane: 8, 16 or 32
	per   int    // lanes per word
	words int    // words per packed row or signature
	mixed uint64 // the all-ones lane
	top   uint64 // every lane's top bit
	low   uint64 // every lane's other bits
}

// newLanes picks the narrowest lane width of 8, 16 and 32 bits whose
// all-ones value exceeds v+1 for the largest code v in t.
func newLanes(t *relation.Table) lanes {
	maxCode := relation.Star
	for _, r := range t.Rows() {
		for _, v := range r {
			maxCode = max(maxCode, v)
		}
	}
	width := uint(8)
	for uint64(int64(maxCode)+1) >= 1<<width-1 {
		width *= 2
	}
	l := lanes{width: width, per: 64 / int(width), mixed: 1<<width - 1}
	l.words = (t.Degree() + l.per - 1) / l.per
	l.top = ^uint64(0) / l.mixed << (width - 1)
	l.low = ^l.top
	return l
}

// pack writes row r into the zeroed words dst.
func (l *lanes) pack(dst []uint64, r relation.Row) {
	for c, v := range r {
		dst[c/l.per] |= uint64(int64(v)+1) << (uint(c%l.per) * l.width)
	}
}

// differ sets the top bit of every nonzero lane of x.
func (l *lanes) differ(x uint64) uint64 {
	return ((x & l.low) + l.low | x) & l.top
}

// joinCost is core.Anon(S ∪ {r}) for a set S of size n with signature
// sig: each lane where sig differs from r stars all n+1 rows. With S
// empty, {r} alone costs nothing.
func (l *lanes) joinCost(n int, sig, r []uint64) int {
	if n == 0 {
		return 0
	}
	r = r[:len(sig)]
	d := 0
	for q, x := range sig {
		d += bits.OnesCount64(l.differ(x ^ r[q]))
	}
	return (n + 1) * d
}

// merge marks mixed every lane of sig on which r differs from it.
func (l *lanes) merge(sig, r []uint64) {
	for q, x := range sig {
		sig[q] = x | (l.differ(x^r[q])>>(l.width-1))*l.mixed
	}
}

// search is the local search's state. Besides the groups it caches
// each group's cost, packed signature and mixed-column count, and each
// row's leave-out signature (its group's signature with the row
// removed) and the number of columns that leaving unmixes, so that a
// candidate move prices in O(m/per) words without building the moved
// groups, and is bounded in O(1) before it is priced at all.
type search struct {
	lanes
	m      int
	groups [][]int
	cost   []int
	mix    []int32 // group g's mixed columns: cost[g] = |g|·mix[g]
	sig    [][]uint64
	owner  []int
	rows   []uint64 // row i packed is rows[i*words : (i+1)*words]
	out    []uint64 // row i's leave-out signature, laid out likewise
	frees  []int32  // the columns of its group that row i's departure unmixes
}

func (s *search) row(i int) []uint64    { return s.rows[i*s.words : (i+1)*s.words] }
func (s *search) outSig(i int) []uint64 { return s.out[i*s.words : (i+1)*s.words] }

// resign recomputes group gi's signature, cost and mixed-column count,
// and its members' owner, leave-out signature and freed-column count,
// in O(|group|·m). Per column, the first two distinct values and their
// counts decide every leave-out: removing a row leaves the column
// uniform only when all the other rows share one value.
func (s *search) resign(gi int) {
	g, sig := s.groups[gi], s.sig[gi]
	clear(sig)
	s.mix[gi] = 0
	for _, r := range g {
		s.owner[r], s.frees[r] = gi, 0
		clear(s.outSig(r))
	}
	for c := range s.m {
		q, shift := c/s.per, uint(c%s.per)*s.width
		lane := func(r int) uint64 { return s.rows[r*s.words+q] >> shift & s.mixed }
		a, b, na, nb, third := s.mixed, s.mixed, 0, 0, false
		for _, r := range g {
			switch v := lane(r); {
			case na == 0 || v == a:
				a, na = v, na+1
			case nb == 0 || v == b:
				b, nb = v, nb+1
			default:
				third = true
			}
		}
		if nb > 0 {
			sig[q] |= s.mixed << shift
			s.mix[gi]++
		} else {
			sig[q] |= a << shift
		}
		for _, r := range g {
			out := a
			if nb > 0 {
				switch v := lane(r); {
				case !third && v == a && na == 1:
					out = b
				case !third && v == b && nb == 1:
					out = a
				default:
					out = s.mixed
				}
				if out != s.mixed {
					s.frees[r]++
				}
			}
			s.out[r*s.words+q] |= out << shift
		}
	}
	s.cost[gi] = len(g) * int(s.mix[gi])
}

// Partition improves p in place and returns search statistics. The
// input must be a valid partition with groups of size ≥ k; group sizes
// may grow past 2k−1 (that cap is an analysis device, not a feasibility
// constraint — larger uniform groups are fine and sometimes cheaper).
//
// Candidate moves are priced from cached column signatures, packed
// with the rows into words of lanes (see lanes), and only an accepted
// move re-signs the groups it changed. Before it is priced, each
// candidate is bounded from the cached counts, and one whose bound
// cannot beat the best move so far is passed over unpriced. The
// pricing is exact and the bounds are sound: the search takes the same
// moves, in the same order, as pricing each candidate with core.Anon
// on the moved groups would.
func Partition(t *relation.Table, p *core.Partition, k int, opt *Options) (*Stats, error) {
	if opt == nil {
		opt = &Options{}
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 8
	}
	// poll amortizes the context check over pollEvery candidate
	// evaluations, the scan's unit of work; skip counts c candidates a
	// bound passed over in bulk, polling once for each pollEvery
	// boundary they cross, so the cadence is that of evaluating each.
	evals := 0
	poll := func() error {
		evals++
		if evals&(pollEvery-1) != 0 {
			return nil
		}
		return ctx.Err()
	}
	skip := func(c int) error {
		for b := (evals+c)/pollEvery - evals/pollEvery; b > 0; b-- {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		evals += c
		return nil
	}
	if err := p.Validate(t.Len(), k, 0); err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}

	n := t.Len()
	l := newLanes(t)
	w := l.words
	s := &search{
		lanes: l, m: t.Degree(), groups: p.Groups,
		cost:  make([]int, len(p.Groups)),
		mix:   make([]int32, len(p.Groups)),
		sig:   make([][]uint64, len(p.Groups)),
		owner: make([]int, n),
		rows:  make([]uint64, n*w),
		out:   make([]uint64, n*w),
		frees: make([]int32, n),
	}
	for i := range n {
		s.pack(s.row(i), t.Row(i))
	}
	flat := make([]uint64, len(p.Groups)*w)
	total := 0
	for gi := range s.groups {
		s.sig[gi] = flat[gi*w : (gi+1)*w]
		s.resign(gi)
		total += s.cost[gi]
	}
	st := &Stats{CostBefore: total}
	// A cancelled search still hands back its (valid) groups.
	fail := func(err error) (*Stats, error) {
		p.Groups = s.groups
		return nil, fmt.Errorf("refine: %w", err)
	}
	// Dissolve scratch, indexed by group: the rows tentatively joining
	// each destination, that destination's signature with them, and the
	// cost they add to it.
	extra := make([][]int, len(s.groups))
	esig := make([][]uint64, len(s.groups))
	erise := make([]int, len(s.groups))
	var touched []int

	improved := true
	for st.Rounds = 0; improved && st.Rounds < maxRounds; st.Rounds++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		improved = false

		// Relocate pass. Leaving from saves save; joining g adds at
		// least mix[g], since each of g's mixed columns stars the
		// newcomer too, so a destination with mix[g] ≥ save+bestDelta
		// cannot beat the best so far.
		for i := 0; i < n; i++ {
			from := s.owner[i]
			nf := len(s.groups[from])
			if nf <= k {
				continue
			}
			ri := s.row(i)
			save := s.cost[from] - (nf-1)*int(s.mix[from]-s.frees[i])
			bestG, bestDelta := -1, 0
			for gi := range s.groups {
				if gi == from {
					continue
				}
				if err := poll(); err != nil {
					return fail(err)
				}
				if int(s.mix[gi]) >= save+bestDelta {
					continue
				}
				delta := s.joinCost(len(s.groups[gi]), s.sig[gi], ri) - s.cost[gi] - save
				if delta < bestDelta {
					bestG, bestDelta = gi, delta
				}
			}
			if bestG >= 0 {
				s.groups[from] = withoutRow(s.groups[from], i)
				s.groups[bestG] = append(append([]int(nil), s.groups[bestG]...), i)
				s.resign(from)
				s.resign(bestG)
				total += bestDelta
				st.Relocates++
				improved = true
			}
		}

		// Swap pass. Swapping i out of group a and j in changes a's
		// cost by di ≥ −|a|·frees[i]: j stars at least the columns that
		// stay mixed without i. So with dj bounded likewise, a side
		// whose row frees no column cannot pay for itself, and once
		// the first side priced outweighs what the other can save, the
		// swap cannot pay.
		for i := 0; i < n; i++ {
			gi, ri, oi := s.owner[i], s.row(i), s.outSig(i)
			for j := i + 1; j < n; j++ {
				gj := s.owner[j]
				if gi == gj {
					continue
				}
				if err := poll(); err != nil {
					return fail(err)
				}
				fi, fj := s.frees[i], s.frees[j]
				if fi == 0 && fj == 0 {
					continue
				}
				ni, nj := len(s.groups[gi]), len(s.groups[gj])
				var di, dj int
				if fi > 0 {
					di = s.joinCost(ni-1, oi, s.row(j)) - s.cost[gi]
					if di >= nj*int(fj) {
						continue
					}
					dj = s.joinCost(nj-1, s.outSig(j), ri) - s.cost[gj]
				} else {
					dj = s.joinCost(nj-1, s.outSig(j), ri) - s.cost[gj]
					if dj >= 0 {
						continue
					}
					di = s.joinCost(ni-1, oi, s.row(j)) - s.cost[gi]
				}
				if delta := di + dj; delta < 0 {
					s.groups[gi] = append(withoutRow(s.groups[gi], i), j)
					s.groups[gj] = append(withoutRow(s.groups[gj], j), i)
					s.resign(gi)
					s.resign(gj)
					total += delta
					st.Swaps++
					improved = true
					gi = gj
				}
			}
		}

		// Dissolve pass: disband a whole group into the others.
		if !opt.NoDissolve {
			for gi := 0; gi < len(s.groups); gi++ {
				if len(s.groups) == 1 {
					break
				}
				g := s.groups[gi]
				if len(g) > 2*k-1 {
					continue // large groups rarely profit and blow up the scan
				}
				// Tentatively place each row in the group where its
				// marginal cost (including earlier tentative joiners)
				// is lowest. No placement lowers a cost, and the
				// attempt's delta is the summed rise less cost(gi):
				// once the rise reaches cost(gi) the attempt cannot
				// pay, and the rows left are passed over unpriced.
				for _, dst := range touched {
					extra[dst] = extra[dst][:0]
				}
				touched = touched[:0]
				rise, placed := 0, 0
				for ; placed < len(g) && rise < s.cost[gi]; placed++ {
					r := s.row(g[placed])
					bestDst, bestMarginal := -1, 0
					for gj := range s.groups {
						if gj == gi {
							continue
						}
						if err := poll(); err != nil {
							return fail(err)
						}
						size, sig := len(s.groups[gj]), s.sig[gj]
						if e := len(extra[gj]); e > 0 {
							size, sig = size+e, esig[gj]
						}
						marginal := s.joinCost(size, sig, r) - s.cost[gj]
						if bestDst == -1 || marginal < bestMarginal {
							bestDst, bestMarginal = gj, marginal
						}
					}
					if len(extra[bestDst]) == 0 {
						touched = append(touched, bestDst)
						esig[bestDst] = append(esig[bestDst][:0], s.sig[bestDst]...)
						erise[bestDst] = 0
					}
					extra[bestDst] = append(extra[bestDst], g[placed])
					s.merge(esig[bestDst], r)
					rise += bestMarginal - erise[bestDst]
					erise[bestDst] = bestMarginal
				}
				delta := rise - s.cost[gi]
				if delta >= 0 {
					if err := skip((len(g) - placed) * (len(s.groups) - 1)); err != nil {
						return fail(err)
					}
					continue
				}
				for _, dst := range touched {
					// Copy before growing: a group may share backing
					// storage with a sibling (e.g. after an oversize
					// split), and in-place append would clobber it.
					s.groups[dst] = append(append([]int(nil), s.groups[dst]...), extra[dst]...)
				}
				s.groups = append(s.groups[:gi], s.groups[gi+1:]...)
				s.cost = append(s.cost[:gi], s.cost[gi+1:]...)
				s.mix = append(s.mix[:gi], s.mix[gi+1:]...)
				s.sig = append(s.sig[:gi], s.sig[gi+1:]...)
				for r := range s.owner {
					if s.owner[r] > gi {
						s.owner[r]--
					}
				}
				for _, dst := range touched {
					if dst > gi {
						dst--
					}
					s.resign(dst)
				}
				total += delta
				st.Dissolves++
				improved = true
				gi--
			}
		}
	}

	p.Groups = s.groups
	st.CostAfter = total
	if err := p.Validate(t.Len(), k, 0); err != nil {
		return nil, fmt.Errorf("refine: internal: %w", err)
	}
	if got := p.Cost(t); got != total {
		return nil, fmt.Errorf("refine: internal: incremental cost %d != recomputed %d", total, got)
	}
	return st, nil
}

// withoutRow returns a fresh copy of g without row i, order kept.
func withoutRow(g []int, i int) []int {
	out := make([]int, 0, len(g))
	for _, x := range g {
		if x != i {
			out = append(out, x)
		}
	}
	return out
}
