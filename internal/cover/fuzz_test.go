package cover

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"kanon/internal/core"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/relation"
)

// FuzzGreedyBallsMatchesReference: on any small table — n ≤ 48 rows,
// m ≤ 6 columns, starred cells — under the dense, bitset or a weighted
// kernel, for any k from 1 to 5 and 1 to 3 workers, GreedyBallsCtx must
// pick the reference's cover and count the reference's rounds,
// evaluations and picks. Each byte of cells is one cell: a multiple of
// 7 is a starred cell, anything else code b%5. A weighted kernel takes
// column j's weight from weights (1 + the byte, up to 256 per column),
// so its range lands on either side of the flat tables' MaxDist()+1 ≤ n
// rule, and for heavy weights past countingSortCutoff; a Hamming kernel
// over fewer rows than columns lands on the sparse side too.
func FuzzGreedyBallsMatchesReference(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), []byte{}, uint8(3), uint8(2), uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 7, 2, 3, 1, 14, 3, 5, 5, 5, 6, 6, 6}, []byte{0, 4, 7}, uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over and again"), []byte{255, 200, 1}, uint8(5), uint8(2), uint8(2), uint8(2))
	f.Add([]byte("flat count tables and sparse histograms pick the same balls"), []byte{0, 0, 0, 0, 0, 0}, uint8(6), uint8(4), uint8(2), uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, []byte{}, uint8(6), uint8(0), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, cells, weights []byte, m, k, kernel, workers uint8) {
		degree := 1 + int(m)%6
		n := len(cells) / degree
		if n < 1 || n > 48 {
			return
		}
		kk := 1 + int(k)%min(5, n)
		names := make([]string, degree)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		tab := relation.NewTable(relation.NewSchema(names...))
		for i := 0; i < n; i++ {
			r := make([]string, degree)
			for c := range r {
				if b := cells[i*degree+c]; b%7 == 0 {
					r[c] = relation.StarString
				} else {
					r[c] = fmt.Sprint(b % 5)
				}
			}
			if err := tab.AppendStrings(r...); err != nil {
				t.Fatal(err)
			}
		}
		var kern metric.Kernel
		switch kernel % 3 {
		case 0:
			kern = metric.NewMatrix(tab)
		case 1:
			kern = bitKernel(t, tab)
		default:
			w := make(core.Weights, degree)
			for j := range w {
				w[j] = 1
				if len(weights) > 0 {
					w[j] += int(weights[j%len(weights)])
				}
			}
			wm, err := core.WeightedMatrixCtx(context.Background(), tab, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			kern = wm
		}
		nw := 1 + int(workers)%3
		want, wantCnt := greedyCounters(t, func(sp *obs.Span) ([]Set, error) {
			return greedyBallsRef(context.Background(), kern, kk, 1, sp)
		})
		got, gotCnt := greedyCounters(t, func(sp *obs.Span) ([]Set, error) {
			return GreedyBallsCtx(context.Background(), kern, kk, nw, sp)
		})
		flat := newBallCounts(kern, 1).width > 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d m=%d k=%d workers=%d MaxDist=%d flat=%v: cover\n%v\nreference\n%v", n, degree, kk, nw, kern.MaxDist(), flat, got, want)
		}
		if gotCnt != wantCnt {
			t.Fatalf("n=%d m=%d k=%d workers=%d MaxDist=%d flat=%v: rounds/considered/picked %v, reference %v", n, degree, kk, nw, kern.MaxDist(), flat, gotCnt, wantCnt)
		}
	})
}
