package refine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"kanon/internal/relation"
)

// fuzzOffsets are the per-column code offsets FuzzRefineMatchesReference
// picks from. A column's codes are offset + 0..7, so its largest code
// can land on either side of the 8-bit lane boundary (253 fits, 254 and
// 255 do not), of the 16-bit one (65,533 fits, 65,534 and 65,535 do
// not), or at the top of int32.
var fuzzOffsets = []int32{0, 246, 247, 248, 65526, 65527, 65528, 1 << 24, math.MaxInt32 - 7}

// FuzzRefineMatchesReference: on any small table — n ≤ 40 rows, m ≤ 20
// columns, starred cells, codes pushed to 16- or 32-bit lanes — any k
// from 1 to 4, any of refStart's starts and any of the reference test's
// option sets, Partition must report the reference's Stats and leave
// its groups. Each byte of cells is one cell: a multiple of 7 is a
// starred cell, anything else code offset + b%8, with column c's offset
// chosen by offsets[c]. The codes are placed in rows directly, as a
// parent table's interning would leave them in a block; refine and the
// distance kernel of refStart's ball-greedy start read nothing else.
func FuzzRefineMatchesReference(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwx"), []byte{}, uint8(3), uint8(1), uint8(0))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 7, 2, 3, 1, 14, 3, 5, 5, 5, 6, 6, 6}, []byte{1, 4, 7}, uint8(2), uint8(2), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), []byte{2, 0, 5}, uint8(8), uint8(2), uint8(5))
	f.Add([]byte("packed rows price every move with a word xor and a popcount"), []byte{8, 3, 6}, uint8(16), uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, cells, offsets []byte, m, k, start uint8) {
		degree := 1 + int(m)%20
		n := len(cells) / degree
		kk := 1 + int(k)%4
		if n < kk || n > 40 {
			return
		}
		names := make([]string, degree)
		off := make([]int32, degree)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
			if len(offsets) > 0 {
				off[c] = fuzzOffsets[int(offsets[c%len(offsets)])%len(fuzzOffsets)]
			}
		}
		tab := relation.NewTable(relation.NewSchema(names...))
		for i := 0; i < n; i++ {
			r := make(relation.Row, degree)
			for c := range r {
				if b := cells[i*degree+c]; b%7 == 0 {
					r[c] = relation.Star
				} else {
					r[c] = off[c] + int32(b%8)
				}
			}
			if err := tab.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		opt := []Options{{}, {NoDissolve: true}, {MaxRounds: 1}}[int(start/3)%3]
		build := refStart(tab, kk, int(start)%3, int64(start))
		got, want := build(), build()
		o := opt
		wantSt, err := partitionRef(tab, want, kk, &o)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		o = opt
		gotSt, err := Partition(tab, got, kk, &o)
		if err != nil {
			t.Fatal(err)
		}
		if *gotSt != *wantSt {
			t.Fatalf("k=%d %d-bit lanes: stats %+v, reference %+v", kk, newLanes(tab).width, *gotSt, *wantSt)
		}
		if !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("k=%d %d-bit lanes: groups\n%v\nreference\n%v", kk, newLanes(tab).width, got.Groups, want.Groups)
		}
	})
}
