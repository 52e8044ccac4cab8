package generalize

import (
	"kanon/internal/hierarchy"
	"kanon/internal/relation"
)

// hospitalHierarchies are the §1 example's admissible generalizations
// as a kanon-hierarchy/1 CSV sidecar (column,leaf,levels…,root): last
// names climb to an initial ("R*"), ages to a 20-year band, and first
// names and races only suppress.
const hospitalHierarchies = `first,Harry,*
first,John,*
first,Beatrice,*
last,Stone,S*,*
last,Reyser,R*,*
last,Ramos,R*,*
age,22,20-40,*
age,34,20-40,*
age,36,20-40,*
age,47,40-60,*
race,Afr-Am,*
race,Cauc,*
race,Hisp,*
`

// Hospital returns the paper's §1 X-ray relation and the hierarchies
// its printed 2-anonymization generalizes along.
func Hospital() (*relation.Table, *hierarchy.Spec) {
	tab := relation.NewTable(relation.NewSchema("first", "last", "age", "race"))
	for _, r := range [][]string{
		{"Harry", "Stone", "34", "Afr-Am"},
		{"John", "Reyser", "36", "Cauc"},
		{"Beatrice", "Stone", "47", "Afr-Am"},
		{"John", "Ramos", "22", "Hisp"},
	} {
		if err := tab.AppendStrings(r...); err != nil {
			panic(err)
		}
	}
	spec, err := hierarchy.ParseSpec([]byte(hospitalHierarchies))
	if err != nil {
		panic(err)
	}
	return tab, spec
}
