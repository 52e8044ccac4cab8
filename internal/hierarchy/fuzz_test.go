package hierarchy

import (
	"fmt"
	"reflect"
	"testing"

	"kanon/internal/relation"
)

// FuzzHierarchySpec hammers the sidecar decoder: arbitrary bytes must
// never panic, and any spec the decoder accepts must survive an
// encode → parse round trip unchanged — the durable-manifest contract
// for hierarchy jobs.
func FuzzHierarchySpec(f *testing.F) {
	f.Add([]byte(jsonSpec))
	f.Add([]byte("city,oslo,norway,europe,*\ncity,paris,france,europe,*\n"))
	f.Add([]byte(`{"columns":[{"name":"a","kind":"interval","width":5,"min":0,"max":99}]}`))
	f.Add([]byte(`{"columns":[{"name":"a","paths":{"x":["*"]}}]}`))
	f.Add([]byte(`{"columns":[{"name":"a","paths":{"x":["x"]}}]}`))                   // cycle
	f.Add([]byte(`{"columns":[{"name":"a","paths":{"x":["*"],"y":[]}}]}`))            // level gap
	f.Add([]byte(`{"columns":[{"name":"a","paths":{"x":["p","*"],"y":["p","z"]}}]}`)) // split root
	f.Add([]byte("a,b\n"))
	f.Add([]byte("{"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		b, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		s2, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("encoded spec does not re-parse: %v\n%s", err, b)
		}
		// The version is stamped on encode; align before comparing.
		s.Version = SpecVersion
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, s2)
		}
	})
}

// FuzzSearchMatchesBruteForce: on any tiny table — up to three
// columns, starred cells, any k and suppression budget — the search
// returns the brute-force minimum-NCP cut with its NCP and suppression
// count, or ErrNoCut exactly when brute force finds no cut. Each byte of
// data is one cell: a multiple of 7 is a starred cell, anything else
// one of five values (integers in odd columns, so Derive builds
// intervals there and trees elsewhere).
func FuzzSearchMatchesBruteForce(f *testing.F) {
	f.Add([]byte("abcdefghijkl"), uint8(2), uint8(3), uint8(1))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 7, 2, 3, 1, 14, 3}, uint8(2), uint8(2), uint8(0))
	f.Add([]byte{0, 1, 0, 1, 0, 2}, uint8(0), uint8(3), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, m, k, budget uint8) {
		degree := 1 + int(m)%3
		n := len(data) / degree
		if n == 0 || n > 48 {
			return
		}
		header := make([]string, degree)
		for j := range header {
			header[j] = fmt.Sprintf("c%d", j)
		}
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = make([]string, degree)
			for j := range rows[i] {
				b := data[i*degree+j]
				switch {
				case b%7 == 0:
					rows[i][j] = relation.StarString
				case j%2 == 1:
					rows[i][j] = fmt.Sprintf("%d", 10+int(b%5)*7)
				default:
					rows[i][j] = fmt.Sprintf("v%d", b%5)
				}
			}
		}
		tab := tableOf(t, header, rows)
		cols, err := Compile(Derive(tab), tab)
		if err != nil {
			t.Fatalf("derived spec does not compile: %v", err)
		}
		ct := BuildCountTree(tab, cols)
		kk, sup := 1+int(k)%n, int(budget)%(n+1)
		want := bruteForce(ct, cols, kk, sup)
		got, err := Search(ct, kk, sup, nil)
		if want == nil {
			if err != ErrNoCut {
				t.Fatalf("k=%d budget=%d: brute force finds no cut, search %+v, %v", kk, sup, got, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("k=%d budget=%d: %v", kk, sup, err)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) || got.NCP != want.NCP || got.Suppressed != want.Suppressed {
			t.Fatalf("k=%d budget=%d: search %v ncp=%v sup=%d, brute force %v ncp=%v sup=%d",
				kk, sup, got.Levels, got.NCP, got.Suppressed, want.Levels, want.NCP, want.Suppressed)
		}
	})
}
