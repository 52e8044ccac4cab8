package refine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"kanon/internal/algo"
	"kanon/internal/core"
	"kanon/internal/dataset"
	"kanon/internal/relation"
)

// refTable draws one of the equivalence corpus's tables: census-like,
// uniform or Zipf data, or any of them with random cells pre-starred.
// Kinds 6–11 repeat kinds 0–5 in the shapes that packed rows find
// hardest, picked by shape = 0..15 so every pairing of m and top is
// drawn: m is 8, 9 or 17 (a row of 8-bit lanes fills one word, or
// spills into a second or a third), and one column's largest code is
// top: 253, the largest 8-bit lanes hold; 254 or 255, which need 16-bit
// lanes; or 65,534 or 65,535, which need 32-bit lanes.
func refTable(rng *rand.Rand, kind, n, shape int) *relation.Table {
	m := 2 + rng.Intn(6)
	if kind >= 6 {
		m = []int{8, 9, 17}[shape%3]
	}
	var t *relation.Table
	switch kind % 3 {
	case 0:
		t = dataset.Census(rng, n, m)
	case 1:
		t = dataset.Uniform(rng, n, m, 2+rng.Intn(3))
	default:
		t = dataset.Zipf(rng, n, m, 3+rng.Intn(4), 1.2+rng.Float64())
	}
	if kind%6 >= 3 {
		t = t.Clone()
		for i := 0; i < t.Len(); i++ {
			for j := 0; j < m; j++ {
				if rng.Intn(4) == 0 {
					t.Row(i)[j] = relation.Star
				}
			}
		}
	}
	if kind >= 6 {
		t = widen(t, rng.Intn(m), []int32{253, 254, 255, 65534, 65535}[shape%5])
	}
	return t
}

// widen re-codes column col of t so that its largest code is top, the
// way a stream block inherits its parent's codes: the parent interns
// top+1 values on that column, its rows take the largest of them, and
// the result is a SubTable of those rows. Equal cells stay equal and
// stars stay stars, so the search's moves are those on t.
func widen(t *relation.Table, col int, top int32) *relation.Table {
	names := t.Schema().Names()
	parent := relation.NewTable(relation.NewSchema(names...))
	for v := int32(0); v <= top; v++ {
		parent.Schema().Attribute(col).Intern(strconv.Itoa(int(v)))
	}
	high := int32(0)
	for _, r := range t.Rows() {
		high = max(high, r[col])
	}
	for i := 0; i < t.Len(); i++ {
		vals := t.Strings(i)
		if v := t.Row(i)[col]; v != relation.Star {
			vals[col] = strconv.Itoa(int(top - high + v))
		}
		if err := parent.AppendStrings(vals...); err != nil {
			panic(err)
		}
	}
	rows := make([]int, t.Len())
	for i := range rows {
		rows[i] = i
	}
	return parent.SubTable(rows)
}

// refStart returns a constructor for one start partition: random
// chunks of size k..2k−1 in shuffled member order, the ball greedy's
// output, or oversize groups split into chunks that share one backing
// array (the shape the dissolve pass's copy-before-append guards).
// Each call builds a fresh, identical partition.
func refStart(t *relation.Table, k, kind int, seed int64) func() *core.Partition {
	n := t.Len()
	return func() *core.Partition {
		rng := rand.New(rand.NewSource(seed))
		switch kind {
		case 0:
			perm := rng.Perm(n)
			var groups [][]int
			for len(perm) > 0 {
				sz := k + rng.Intn(k)
				if sz > len(perm) || len(perm)-sz < k {
					sz = len(perm)
				}
				groups = append(groups, append([]int(nil), perm[:sz]...))
				perm = perm[sz:]
			}
			return &core.Partition{Groups: groups}
		case 1:
			r, err := algo.GreedyBall(t, k, nil)
			if err != nil {
				panic(err)
			}
			return r.Partition
		default:
			perm := rng.Perm(n)
			var groups [][]int
			for len(perm) > 0 {
				sz := 2*k + rng.Intn(2*k)
				if sz > len(perm) || len(perm)-sz < 2*k {
					sz = len(perm)
				}
				g := perm[:sz]
				for len(g) >= 2*k {
					groups = append(groups, g[:k])
					g = g[k:]
				}
				groups = append(groups, g)
				perm = perm[sz:]
			}
			return &core.Partition{Groups: groups}
		}
	}
}

// TestIncrementalMatchesReference pins the incremental pricing to the
// recomputing reference: on census, uniform and Zipf tables (plain and
// pre-starred, narrow and in refTable's packing shapes), k = 1..4,
// three kinds of start and three option sets, both must report
// identical Stats and leave identical groups, member order included —
// the same move sequence, so the same release.
func TestIncrementalMatchesReference(t *testing.T) {
	opts := []Options{{}, {NoDissolve: true}, {MaxRounds: 1}}
	instances, moved := 0, 0
	lanesSeen := map[[2]int]bool{} // {lane width, words per row}
	for seed := int64(0); seed < 4; seed++ {
		for table := 0; table < 12; table++ {
			for k := 1; k <= 4; k++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(table*10+k)))
				tab := refTable(rng, table, 2*k+rng.Intn(40), int(seed)*4+k-1)
				l := newLanes(tab)
				lanesSeen[[2]int{int(l.width), l.words}] = true
				for start := 0; start < 3; start++ {
					build := refStart(tab, k, start, rng.Int63())
					for oi, opt := range opts {
						name := fmt.Sprintf("seed=%d/table=%d/k=%d/start=%d/variant=%d", seed, table, k, start, oi)
						got, want := build(), build()
						o := opt
						wantSt, err := partitionRef(tab, want, k, &o)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						o = opt
						gotSt, err := Partition(tab, got, k, &o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if *gotSt != *wantSt {
							t.Fatalf("%s: stats %+v, reference %+v", name, *gotSt, *wantSt)
						}
						if !reflect.DeepEqual(got.Groups, want.Groups) {
							t.Fatalf("%s: groups\n%v\nreference\n%v", name, got.Groups, want.Groups)
						}
						instances++
						if gotSt.Relocates+gotSt.Swaps+gotSt.Dissolves > 0 {
							moved++
						}
					}
				}
			}
		}
	}
	if instances < 800 {
		t.Fatalf("only %d instances", instances)
	}
	// Every lane width, with rows of one word and of several.
	for _, want := range [][2]int{{8, 1}, {8, 2}, {8, 3}, {16, 3}, {16, 5}, {32, 5}, {32, 9}} {
		if !lanesSeen[want] {
			t.Errorf("no instance packed %d-bit lanes into %d words per row; saw %v", want[0], want[1], lanesSeen)
		}
	}
	if moved < instances/2 {
		t.Fatalf("only %d of %d instances moved anything", moved, instances)
	}
}

// TestCancelMatchesReference cancels both implementations after every
// possible number of context polls. Each must return the wrapped
// context.Canceled and leave the same partial groups, so the poll
// cadence is the reference's, candidate for candidate. Past a dissolve
// the reference's p.Groups keeps stale trailing entries (its working
// slice shrank under the caller's); the incremental search hands back
// exactly its working groups, which must be the reference's prefix and
// a valid partition.
func TestCancelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tab := dataset.Census(rng, 90, 6)
	const k = 3
	if !cancelMatchesReference(t, tab, k, refStart(tab, k, 1, 0)) {
		t.Fatal("no cancel point fell after a dissolve")
	}
}

// TestCancelEveryPollMatchesReference runs the comparison of
// TestCancelMatchesReference with a poll at every candidate, on three
// starts. A bound that passes candidates over must still count each
// one, so a skipped run of candidates that advanced the poll counter
// by one too few or too many shifts every later poll and fails here,
// where at the default cadence it can fall between two polls.
func TestCancelEveryPollMatchesReference(t *testing.T) {
	defer func(every int) { pollEvery = every }(pollEvery)
	pollEvery = 1
	rng := rand.New(rand.NewSource(45))
	tab := dataset.Census(rng, 36, 5)
	const k = 3
	afterDissolve := false
	for start := 0; start < 3; start++ {
		if cancelMatchesReference(t, tab, k, refStart(tab, k, start, int64(start))) {
			afterDissolve = true
		}
	}
	if !afterDissolve {
		t.Fatal("no cancel point fell after a dissolve")
	}
}

// cancelMatchesReference cancels Partition and partitionRef, on
// partitions from build, after every number of polls that a full run
// makes, and fails unless both polled equally often and every cancel
// left the same partial groups. It reports whether some cancel point
// fell after a dissolve.
func cancelMatchesReference(t *testing.T, tab *relation.Table, k int, build func() *core.Partition) (afterDissolve bool) {
	t.Helper()
	count := func(run func(*relation.Table, *core.Partition, int, *Options) (*Stats, error)) int {
		ctx := &countCtx{Context: context.Background(), remaining: 1 << 30}
		if _, err := run(tab, build(), k, &Options{Ctx: ctx}); err != nil {
			t.Fatal(err)
		}
		return 1<<30 - ctx.remaining
	}
	polls := count(Partition)
	if ref := count(partitionRef); polls != ref {
		t.Fatalf("Partition polled %d times, reference %d", polls, ref)
	}
	for n := 0; n < polls; n++ {
		got, want := build(), build()
		_, err := Partition(tab, got, k, &Options{Ctx: &countCtx{Context: context.Background(), remaining: n}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		_, err = partitionRef(tab, want, k, &Options{Ctx: &countCtx{Context: context.Background(), remaining: n}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: reference err = %v, want context.Canceled", n, err)
		}
		if len(got.Groups) > len(want.Groups) || !reflect.DeepEqual(got.Groups, want.Groups[:len(got.Groups)]) {
			t.Fatalf("n=%d: partial groups\n%v\nreference\n%v", n, got.Groups, want.Groups)
		}
		if err := got.Validate(tab.Len(), k, 0); err != nil {
			t.Fatalf("n=%d: cancelled search left an invalid partition: %v", n, err)
		}
		afterDissolve = afterDissolve || len(got.Groups) < len(want.Groups)
	}
	return afterDissolve
}

// partitionRef is Partition as it was before incremental pricing, kept
// verbatim as the reference the incremental search must match move for
// move: it prices every candidate by building the moved groups and
// rescanning them with core.Anon.
func partitionRef(t *relation.Table, p *core.Partition, k int, opt *Options) (*Stats, error) {
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
	// evaluations (each one core.Anon call, the scan's unit of work).
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

	groups := p.Groups
	cost := make([]int, len(groups))
	for gi, g := range groups {
		cost[gi] = core.Anon(t, g)
	}
	total := 0
	for _, c := range cost {
		total += c
	}
	st := &Stats{CostBefore: total}

	owner := make([]int, t.Len())
	for gi, g := range groups {
		for _, i := range g {
			owner[i] = gi
		}
	}

	// withRow / withoutRow build candidate groups without mutating.
	withRow := func(g []int, i int) []int {
		out := make([]int, 0, len(g)+1)
		out = append(out, g...)
		return append(out, i)
	}
	withoutRow := func(g []int, i int) []int {
		out := make([]int, 0, len(g)-1)
		for _, x := range g {
			if x != i {
				out = append(out, x)
			}
		}
		return out
	}

	improved := true
	for st.Rounds = 0; improved && st.Rounds < maxRounds; st.Rounds++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("refine: %w", err)
		}
		improved = false

		// Relocate pass.
		for i := 0; i < t.Len(); i++ {
			from := owner[i]
			if len(groups[from]) <= k {
				continue
			}
			shrunk := withoutRow(groups[from], i)
			shrunkCost := core.Anon(t, shrunk)
			bestG, bestDelta := -1, 0
			var bestGrown []int
			var bestGrownCost int
			for gi := range groups {
				if gi == from {
					continue
				}
				if err := poll(); err != nil {
					return nil, fmt.Errorf("refine: %w", err)
				}
				grown := withRow(groups[gi], i)
				grownCost := core.Anon(t, grown)
				delta := (shrunkCost + grownCost) - (cost[from] + cost[gi])
				if delta < bestDelta {
					bestG, bestDelta = gi, delta
					bestGrown, bestGrownCost = grown, grownCost
				}
			}
			if bestG >= 0 {
				groups[from] = shrunk
				cost[from] = shrunkCost
				groups[bestG] = bestGrown
				cost[bestG] = bestGrownCost
				owner[i] = bestG
				total += bestDelta
				st.Relocates++
				improved = true
			}
		}

		// Swap pass.
		for i := 0; i < t.Len(); i++ {
			gi := owner[i]
			for j := i + 1; j < t.Len(); j++ {
				gj := owner[j]
				if gi == gj {
					continue
				}
				if err := poll(); err != nil {
					return nil, fmt.Errorf("refine: %w", err)
				}
				newI := withRow(withoutRow(groups[gi], i), j)
				newJ := withRow(withoutRow(groups[gj], j), i)
				ci, cj := core.Anon(t, newI), core.Anon(t, newJ)
				delta := (ci + cj) - (cost[gi] + cost[gj])
				if delta < 0 {
					groups[gi], groups[gj] = newI, newJ
					cost[gi], cost[gj] = ci, cj
					owner[i], owner[j] = gj, gi
					total += delta
					st.Swaps++
					improved = true
					gi = owner[i]
				}
			}
		}

		// Dissolve pass: disband a whole group into the others.
		if !opt.NoDissolve {
			for gi := 0; gi < len(groups); gi++ {
				if len(groups) == 1 {
					break
				}
				g := groups[gi]
				if len(g) > 2*k-1 {
					continue // large groups rarely profit and blow up the scan
				}
				// Tentatively place each row in the group where its
				// marginal cost (including earlier tentative joiners)
				// is lowest.
				extra := map[int][]int{} // dst → rows joining it
				feasible := true
				for _, row := range g {
					bestDst, bestMarginal := -1, 0
					for gj := range groups {
						if gj == gi {
							continue
						}
						if err := poll(); err != nil {
							return nil, fmt.Errorf("refine: %w", err)
						}
						cand := withRow(append(append([]int(nil), groups[gj]...), extra[gj]...), row)
						marginal := core.Anon(t, cand) - cost[gj]
						if bestDst == -1 || marginal < bestMarginal {
							bestDst, bestMarginal = gj, marginal
						}
					}
					if bestDst == -1 {
						feasible = false
						break
					}
					extra[bestDst] = append(extra[bestDst], row)
				}
				if !feasible {
					continue
				}
				// Evaluate the aggregate delta with all placements applied.
				newCosts := map[int]int{}
				for dst, rows := range extra {
					cand := append(append([]int(nil), groups[dst]...), rows...)
					newCosts[dst] = core.Anon(t, cand)
				}
				delta := -cost[gi]
				for dst, nc := range newCosts {
					delta += nc - cost[dst]
				}
				if delta >= 0 {
					continue
				}
				for dst, rows := range extra {
					// Copy before growing: a group may share backing
					// storage with a sibling (e.g. after an oversize
					// split), and in-place append would clobber it.
					groups[dst] = append(append([]int(nil), groups[dst]...), rows...)
					cost[dst] = newCosts[dst]
					for _, r := range rows {
						owner[r] = dst
					}
				}
				groups = append(groups[:gi], groups[gi+1:]...)
				cost = append(cost[:gi], cost[gi+1:]...)
				for r := range owner {
					if owner[r] > gi {
						owner[r]--
					}
				}
				total += delta
				st.Dissolves++
				improved = true
				gi--
			}
		}
	}

	p.Groups = groups
	st.CostAfter = total
	if err := p.Validate(t.Len(), k, 0); err != nil {
		return nil, fmt.Errorf("refine: internal: %w", err)
	}
	if got := p.Cost(t); got != total {
		return nil, fmt.Errorf("refine: internal: incremental cost %d != recomputed %d", total, got)
	}
	return st, nil
}
