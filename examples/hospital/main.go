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
	"kanon/internal/relation"
)

func main() {
	header := []string{"first", "last", "age", "race"}
	rows := [][]string{
		{"Harry", "Stone", "34", "Afr-Am"},
		{"John", "Reyser", "36", "Cauc"},
		{"Beatrice", "Stone", "47", "Afr-Am"},
		{"John", "Ramos", "22", "Hisp"},
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

	// Model 2: the paper's generalization hierarchies. Admissible
	// generalizations are declared up front, as the paper requires.
	tab := relation.NewTable(relation.NewSchema(header...))
	for _, r := range rows {
		if err := tab.AppendStrings(r...); err != nil {
			log.Fatal(err)
		}
	}
	last := generalize.NewHierarchy("*")
	last.MustAdd("R*", "*")
	last.MustAdd("S*", "*")
	last.MustAdd("Reyser", "R*")
	last.MustAdd("Ramos", "R*")
	last.MustAdd("Stone", "S*")
	age := generalize.NewHierarchy("*")
	age.MustAdd("20-40", "*")
	age.MustAdd("40-60", "*")
	age.MustAdd("22", "20-40")
	age.MustAdd("34", "20-40")
	age.MustAdd("36", "20-40")
	age.MustAdd("47", "40-60")
	scheme := generalize.Scheme{generalize.Suppression(), last, age, generalize.Suppression()}

	gres, err := generalize.AnonymizeCtx(context.Background(), tab, 2, scheme, 1)
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
