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
	"math"

	"kanon/internal/core"
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

// mixed marks a signature column on which a set's members disagree.
// Symbol codes are ≥ 0 and relation.Star is −1, so mixed never equals
// a row value and a pre-starred cell prices like any other value, as
// it does in core.Anon.
const mixed int32 = math.MinInt32

// joinCost is core.Anon(S ∪ {r}) for a set S of size n with column
// signature sig: each column where sig differs from r stars all n+1
// rows. With S empty, {r} alone costs nothing.
func joinCost(n int, sig []int32, r relation.Row) int {
	if n == 0 {
		return 0
	}
	d := 0
	for c, v := range sig {
		if v != r[c] {
			d++
		}
	}
	return (n + 1) * d
}

// sigCost is core.Anon(S) for a set S of size n with signature sig.
func sigCost(n int, sig []int32) int {
	d := 0
	for _, v := range sig {
		if v == mixed {
			d++
		}
	}
	return n * d
}

// search is the local search's state. Besides the groups it caches
// each group's cost and column signature, and each row's leave-out
// signature (its group's signature with the row removed), so that a
// candidate move prices in O(m) without building the moved groups.
type search struct {
	t      *relation.Table
	m      int
	groups [][]int
	cost   []int
	sig    [][]int32
	owner  []int
	out    []int32 // row i's leave-out signature is out[i*m : (i+1)*m]
	frees  []bool  // row i's departure unmixes a column of its group
}

func (s *search) outSig(i int) []int32 { return s.out[i*s.m : (i+1)*s.m] }

// resign recomputes group gi's signature and cost, and its members'
// owner, leave-out signature and frees flag, in O(|group|·m). Per
// column, the first two distinct values and their counts decide every
// leave-out: removing a row leaves the column uniform only when all
// the other rows share one value.
func (s *search) resign(gi int) {
	g, sig := s.groups[gi], s.sig[gi]
	for _, r := range g {
		s.owner[r], s.frees[r] = gi, false
	}
	for c := range sig {
		a, b, na, nb, third := mixed, mixed, 0, 0, false
		for _, r := range g {
			switch v := s.t.Row(r)[c]; {
			case na == 0 || v == a:
				a, na = v, na+1
			case nb == 0 || v == b:
				b, nb = v, nb+1
			default:
				third = true
			}
		}
		sig[c] = a
		if nb > 0 {
			sig[c] = mixed
		}
		for _, r := range g {
			out := a
			if nb > 0 {
				switch v := s.t.Row(r)[c]; {
				case !third && v == a && na == 1:
					out = b
				case !third && v == b && nb == 1:
					out = a
				default:
					out = mixed
				}
				s.frees[r] = s.frees[r] || out != mixed
			}
			s.out[r*s.m+c] = out
		}
	}
	s.cost[gi] = sigCost(len(g), sig)
}

// Partition improves p in place and returns search statistics. The
// input must be a valid partition with groups of size ≥ k; group sizes
// may grow past 2k−1 (that cap is an analysis device, not a feasibility
// constraint — larger uniform groups are fine and sometimes cheaper).
//
// Candidate moves are priced from cached column signatures, and only an
// accepted move re-signs the groups it changed. The pricing is exact:
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

	n, m := t.Len(), t.Degree()
	s := &search{
		t: t, m: m, groups: p.Groups,
		cost:  make([]int, len(p.Groups)),
		sig:   make([][]int32, len(p.Groups)),
		owner: make([]int, n),
		out:   make([]int32, n*m),
		frees: make([]bool, n),
	}
	flat := make([]int32, len(p.Groups)*m)
	total := 0
	for gi := range s.groups {
		s.sig[gi] = flat[gi*m : (gi+1)*m]
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
	esig := make([][]int32, len(s.groups))
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
			ri := t.Row(i)
			shrunkCost := sigCost(len(s.groups[from])-1, s.outSig(i))
			bestG, bestDelta := -1, 0
			for gi := range s.groups {
				if gi == from {
					continue
				}
				if err := poll(); err != nil {
					return fail(err)
				}
				grownCost := joinCost(len(s.groups[gi]), s.sig[gi], ri)
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
			gi := s.owner[i]
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
				ci := joinCost(len(s.groups[gi])-1, s.outSig(i), t.Row(j))
				cj := joinCost(len(s.groups[gj])-1, s.outSig(j), t.Row(i))
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
					r := t.Row(row)
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
						marginal := joinCost(size, sig, r) - s.cost[gj]
						if bestDst == -1 || marginal < bestMarginal {
							bestDst, bestMarginal = gj, marginal
						}
					}
					if len(extra[bestDst]) == 0 {
						touched = append(touched, bestDst)
						esig[bestDst] = append(esig[bestDst][:0], s.sig[bestDst]...)
					}
					extra[bestDst] = append(extra[bestDst], row)
					for c, v := range esig[bestDst] {
						if v != r[c] {
							esig[bestDst][c] = mixed
						}
					}
				}
				// Evaluate the aggregate delta with all placements applied.
				delta := -s.cost[gi]
				for _, dst := range touched {
					delta += sigCost(len(s.groups[dst])+len(extra[dst]), esig[dst]) - s.cost[dst]
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
