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
// polls; a power of two so the check is a mask, not a division.
const pollEvery = 1024

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

// sigCost is core.Anon(S) for a set S of size n with signature sig: the
// mixed lanes are the zero lanes of ^sig.
func (l *lanes) sigCost(n int, sig []uint64) int {
	d := 0
	for _, x := range sig {
		d += bits.OnesCount64(l.top &^ l.differ(^x))
	}
	return n * d
}

// merge marks mixed every lane of sig on which r differs from it.
func (l *lanes) merge(sig, r []uint64) {
	for q, x := range sig {
		sig[q] = x | (l.differ(x^r[q])>>(l.width-1))*l.mixed
	}
}

// search is the local search's state. Besides the groups it caches
// each group's cost and packed signature, and each row's leave-out
// signature (its group's signature with the row removed), so that a
// candidate move prices in O(m/per) words without building the moved
// groups.
type search struct {
	lanes
	m      int
	groups [][]int
	cost   []int
	sig    [][]uint64
	owner  []int
	rows   []uint64 // row i packed is rows[i*words : (i+1)*words]
	out    []uint64 // row i's leave-out signature, laid out likewise
	frees  []bool   // row i's departure unmixes a column of its group
}

func (s *search) row(i int) []uint64    { return s.rows[i*s.words : (i+1)*s.words] }
func (s *search) outSig(i int) []uint64 { return s.out[i*s.words : (i+1)*s.words] }

// resign recomputes group gi's signature and cost, and its members'
// owner, leave-out signature and frees flag, in O(|group|·m). Per
// column, the first two distinct values and their counts decide every
// leave-out: removing a row leaves the column uniform only when all
// the other rows share one value.
func (s *search) resign(gi int) {
	g, sig := s.groups[gi], s.sig[gi]
	clear(sig)
	for _, r := range g {
		s.owner[r], s.frees[r] = gi, false
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
				s.frees[r] = s.frees[r] || out != s.mixed
			}
			s.out[r*s.words+q] |= out << shift
		}
	}
	s.cost[gi] = s.sigCost(len(g), sig)
}

// Partition improves p in place and returns search statistics. The
// input must be a valid partition with groups of size ≥ k; group sizes
// may grow past 2k−1 (that cap is an analysis device, not a feasibility
// constraint — larger uniform groups are fine and sometimes cheaper).
//
// Candidate moves are priced from cached column signatures, packed
// with the rows into words of lanes (see lanes), and only an accepted
// move re-signs the groups it changed. The pricing is exact:
// the search takes the same moves, in the same order, as pricing each
// candidate with core.Anon on the moved groups would.
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
	// evaluations, the scan's unit of work.
	evals := 0
	poll := func() error {
		evals++
		if evals&(pollEvery-1) != 0 {
			return nil
		}
		return ctx.Err()
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
		sig:   make([][]uint64, len(p.Groups)),
		owner: make([]int, n),
		rows:  make([]uint64, n*w),
		out:   make([]uint64, n*w),
		frees: make([]bool, n),
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
	// each destination and that destination's signature with them.
	extra := make([][]int, len(s.groups))
	esig := make([][]uint64, len(s.groups))
	var touched []int

	improved := true
	for st.Rounds = 0; improved && st.Rounds < maxRounds; st.Rounds++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		improved = false

		// Relocate pass.
		for i := 0; i < n; i++ {
			from := s.owner[i]
			if len(s.groups[from]) <= k {
				continue
			}
			ri := s.row(i)
			shrunkCost := s.sigCost(len(s.groups[from])-1, s.outSig(i))
			bestG, bestDelta := -1, 0
			for gi := range s.groups {
				if gi == from {
					continue
				}
				if err := poll(); err != nil {
					return fail(err)
				}
				grownCost := s.joinCost(len(s.groups[gi]), s.sig[gi], ri)
				delta := (shrunkCost + grownCost) - (s.cost[from] + s.cost[gi])
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

		// Swap pass.
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
				// If neither departure unmixes a column, each side
				// costs at least what it did: the swap cannot pay.
				if !s.frees[i] && !s.frees[j] {
					continue
				}
				ci := s.joinCost(len(s.groups[gi])-1, oi, s.row(j))
				cj := s.joinCost(len(s.groups[gj])-1, s.outSig(j), ri)
				delta := (ci + cj) - (s.cost[gi] + s.cost[gj])
				if delta < 0 {
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
				// is lowest.
				for _, dst := range touched {
					extra[dst] = extra[dst][:0]
				}
				touched = touched[:0]
				for _, row := range g {
					r := s.row(row)
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
					}
					extra[bestDst] = append(extra[bestDst], row)
					s.merge(esig[bestDst], r)
				}
				// Evaluate the aggregate delta with all placements applied.
				delta := -s.cost[gi]
				for _, dst := range touched {
					delta += s.sigCost(len(s.groups[dst])+len(extra[dst]), esig[dst]) - s.cost[dst]
				}
				if delta >= 0 {
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
