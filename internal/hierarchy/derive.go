package hierarchy

import (
	"sort"
	"strconv"

	"kanon/internal/relation"
)

// deriveFanout is the grouping factor for derived categorical trees.
const deriveFanout = 3

// Derive builds a generalization spec from the data itself: columns
// whose every value parses as an integer get interval hierarchies with
// data-derived bounds, and categorical columns get balanced fanout-3
// trees over their sorted distinct values with range labels like
// "axe..cat". This is what `kanon-datagen -hierarchy` emits and what
// hierarchy mode falls back to when no sidecar is given.
func Derive(t *relation.Table) *Spec {
	s := &Spec{Version: SpecVersion}
	for j, name := range t.Schema().Names() {
		attr := t.Schema().Attribute(j)
		s.Columns = append(s.Columns, deriveColumn(name, attr.Alphabet()))
	}
	return s
}

// deriveColumn picks a hierarchy shape for one column's alphabet.
func deriveColumn(name string, alphabet []string) ColumnSpec {
	if len(alphabet) == 0 {
		return ColumnSpec{Name: name, Kind: KindSuppress}
	}
	numeric := true
	for _, v := range alphabet {
		if _, err := strconv.Atoi(v); err != nil {
			numeric = false
			break
		}
	}
	if numeric {
		return ColumnSpec{Name: name, Kind: KindInterval}
	}
	return ColumnSpec{Name: name, Kind: KindTree, Paths: deriveTree(alphabet)}
}

// deriveTree groups the sorted distinct values into consecutive runs
// of deriveFanout per level until one group remains, then roots the
// tree at "*". Interior labels are "first..last" ranges of the leaves
// they cover, suffixed with "+" until unique — a pass-through group
// repeats its child's range, and Validate rejects a label that
// appears at two levels as a cycle.
func deriveTree(alphabet []string) map[string][]string {
	leaves := append([]string(nil), alphabet...)
	sort.Strings(leaves)
	used := make(map[string]bool, 2*len(leaves))
	for _, v := range leaves {
		used[v] = true
	}
	// member[i] lists the leaves under the i-th group at the current
	// level; groups keep the leaves' sorted order.
	member := make([][]string, len(leaves))
	for i, v := range leaves {
		member[i] = []string{v}
	}
	paths := make(map[string][]string, len(leaves))
	for len(member) > 1 {
		var next [][]string
		for i := 0; i < len(member); i += deriveFanout {
			end := i + deriveFanout
			if end > len(member) {
				end = len(member)
			}
			var leavesUnder []string
			for _, m := range member[i:end] {
				leavesUnder = append(leavesUnder, m...)
			}
			label := rangeLabel(leavesUnder[0], leavesUnder[len(leavesUnder)-1])
			for used[label] {
				label += "+"
			}
			used[label] = true
			for _, leaf := range leavesUnder {
				paths[leaf] = append(paths[leaf], label)
			}
			next = append(next, leavesUnder)
		}
		member = next
	}
	for _, leaf := range leaves {
		paths[leaf] = append(paths[leaf], relation.StarString)
	}
	return paths
}

// SuppressionSpec declares every column of t with the paper's
// two-level value → ★ hierarchy, under which full-domain
// generalization is whole-attribute suppression.
func SuppressionSpec(t *relation.Table) *Spec {
	s := &Spec{Version: SpecVersion}
	for _, name := range t.Schema().Names() {
		s.Columns = append(s.Columns, ColumnSpec{Name: name, Kind: KindSuppress})
	}
	return s
}
