// Hospital: reproduces the paper's §1 motivating example — the X-ray
// relation, 2-anonymized two ways:
//
//  1. by entry suppression (the model the paper analyzes), and
//
//  2. by the generalization hierarchies the paper displays ("20-40",
//     "R*", …), reproducing its printed table exactly.
//
//     go run ./examples/hospital
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"kanon"
	"kanon/internal/generalize"
)

func main() {
	// The relation and the admissible generalizations the paper
	// declares up front ("20-40", "R*", …), as a hierarchy spec.
	tab, spec := generalize.Hospital()
	header := tab.Schema().Names()
	rows := make([][]string, tab.Len())
	for i := range rows {
		rows[i] = tab.Strings(i)
	}
	fmt.Println("Who had an X-ray at this hospital yesterday?")
	printTable(header, rows)

	// Model 1: pure suppression via the public API (the table is tiny,
	// so use the provably optimal solver).
	res, err := kanon.Anonymize(header, rows, 2, &kanon.Options{Algorithm: kanon.AlgoExact})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n2-anonymized by suppression (%d stars):\n", res.Cost)
	printTable(header, res.Rows)

	// Model 2: the paper's generalization hierarchies.
	gres, err := generalize.AnonymizeCtx(context.Background(), tab, 2, spec, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n2-anonymized with the paper's hierarchies (cost %d level-climbs):\n", gres.Cost)
	printTable(header, gres.Rows)
	fmt.Println("\n(compare with the table printed in §1 of the paper)")
}

func printTable(header []string, rows [][]string) {
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
