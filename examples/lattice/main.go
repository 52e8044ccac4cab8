// Lattice: full-domain generalization — the original Samarati/Sweeney
// k-anonymity mechanism ([10] in the paper) that the paper's cell-level
// suppression model refines. Every value of a column is generalized to
// the same hierarchy level; the search finds the k-anonymous lattice
// node with the least information loss (NCP), optionally suppressing a
// few outlier rows whole.
//
//	go run ./examples/lattice
package main

import (
	"fmt"
	"log"
	"strings"

	"kanon"
)

// hierarchies declares each column's levels as a CSV sidecar:
// column,leaf,level 1,…,root.
const hierarchies = `zip,15213,152**,*
zip,15217,152**,*
zip,15301,153**,*
zip,15305,153**,*
zip,90210,902**,*
age,23,20-39,*
age,31,20-39,*
age,34,20-39,*
age,36,20-39,*
age,38,20-39,*
age,52,40-59,*
age,55,40-59,*
age,57,40-59,*
age,59,40-59,*
sex,M,*
sex,F,*
`

func main() {
	header := []string{"zip", "age", "sex"}
	rows := [][]string{
		{"15213", "34", "M"},
		{"15217", "36", "M"},
		{"15213", "38", "F"},
		{"15217", "31", "F"},
		{"15301", "52", "M"},
		{"15301", "57", "F"},
		{"15305", "55", "M"},
		{"15305", "59", "F"},
		{"90210", "23", "F"}, // a geographic outlier
	}
	spec, err := kanon.ParseHierarchySpec([]byte(hierarchies))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("input:")
	printRows(header, rows)

	for _, maxSup := range []int{0, 1} {
		res, err := kanon.Anonymize(header, rows, 2, &kanon.Options{
			Algorithm:   kanon.AlgoHierarchy,
			Hierarchy:   spec,
			MaxSuppress: maxSup,
		})
		if err != nil {
			log.Fatal(err)
		}
		levels, height := cut(spec, header, rows, res.Rows), 0
		for _, l := range levels {
			height += l
		}
		fmt.Printf("\nk = 2, outlier budget %d → levels %v (height %d), NCP %.3f\n",
			maxSup, levels, height, res.NCP)
		if len(res.Suppressed) > 0 {
			fmt.Printf("rows suppressed as outliers: %v\n", res.Suppressed)
		}
		printRows(header, res.Rows)
	}
	fmt.Println("\n(with one row of suppression budget the 90210 outlier is suppressed")
	fmt.Println(" instead of dragging every zip code to the root)")
}

// cut reads each column's generalization level off the release: how
// far up row 0's root-ward path its released label sits (row 0 is
// never the outlier here).
func cut(spec *kanon.HierarchySpec, header []string, rows, release [][]string) []int {
	levels := make([]int, len(header))
	for j, name := range header {
		col, _ := spec.Column(name)
		for l, label := range col.Paths[rows[0][j]] {
			if label == release[0][j] {
				levels[j] = l + 1
			}
		}
	}
	return levels
}

func printRows(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for j, h := range header {
		widths[j] = len(h)
	}
	for _, r := range rows {
		for j, c := range r {
			if len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for j, c := range cells {
			parts[j] = c + strings.Repeat(" ", widths[j]-len(c))
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}
