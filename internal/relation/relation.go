// Package relation implements the tabular substrate of the reproduction:
// schemas, attribute alphabets, rows of interned symbols, and the star
// sentinel used for suppression.
//
// The paper (Meyerson & Williams, PODS 2004, §2) models a database as a
// set V ⊆ Σ^m of m-dimensional vectors over a finite alphabet Σ, with a
// fresh symbol ★ ∉ Σ standing for a suppressed entry. This package
// represents vectors as rows of small integer symbols, one interning
// table per attribute, so that distance computations and group signature
// hashing are cheap and allocation-free on the hot paths.
package relation

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Star is the sentinel symbol code representing a suppressed entry (the
// paper's ★). It is deliberately outside every attribute alphabet, whose
// symbol codes are always non-negative.
const Star int32 = -1

// StarString is the textual rendering of a suppressed entry.
const StarString = "*"

// Attribute describes a single column: its name and the interned
// alphabet of values observed (or declared) for it.
type Attribute struct {
	Name string

	// symbols maps the symbol code (index) back to the external string.
	symbols []string
	// index maps an external string to its symbol code.
	index map[string]int32
}

// NewAttribute returns an attribute with the given name and an empty
// alphabet.
func NewAttribute(name string) *Attribute {
	return &Attribute{Name: name, index: make(map[string]int32)}
}

// Intern returns the symbol code for value, adding it to the alphabet if
// it has not been seen before.
func (a *Attribute) Intern(value string) int32 {
	if code, ok := a.index[value]; ok {
		return code
	}
	code := int32(len(a.symbols))
	a.symbols = append(a.symbols, value)
	a.index[value] = code
	return code
}

// Lookup returns the symbol code for value, or (0, false) if the value is
// not in the alphabet.
func (a *Attribute) Lookup(value string) (int32, bool) {
	code, ok := a.index[value]
	return code, ok
}

// Value returns the external string for a symbol code. The Star code
// renders as StarString.
func (a *Attribute) Value(code int32) string {
	if code == Star {
		return StarString
	}
	return a.symbols[code]
}

// AlphabetSize reports the number of distinct values interned so far.
func (a *Attribute) AlphabetSize() int { return len(a.symbols) }

// Alphabet returns a copy of the attribute's alphabet in symbol-code
// order.
func (a *Attribute) Alphabet() []string {
	out := make([]string, len(a.symbols))
	copy(out, a.symbols)
	return out
}

// Schema is an ordered list of attributes. The paper's degree m is
// len(schema).
type Schema struct {
	attrs []*Attribute
}

// NewSchema builds a schema from attribute names.
func NewSchema(names ...string) *Schema {
	s := &Schema{attrs: make([]*Attribute, 0, len(names))}
	for _, n := range names {
		s.attrs = append(s.attrs, NewAttribute(n))
	}
	return s
}

// Degree reports the number of attributes (the paper's m).
func (s *Schema) Degree() int { return len(s.attrs) }

// Attribute returns the j-th attribute.
func (s *Schema) Attribute(j int) *Attribute { return s.attrs[j] }

// Names returns the attribute names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Row is a single tuple: one symbol code per attribute. A code of Star
// means the entry is suppressed.
type Row []int32

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows are identical entry for entry
// (suppressed entries compare equal to each other, as in the paper's
// "textually indistinguishable").
func (r Row) Equal(other Row) bool {
	if len(r) != len(other) {
		return false
	}
	for j := range r {
		if r[j] != other[j] {
			return false
		}
	}
	return true
}

// Stars counts the suppressed entries in the row.
func (r Row) Stars() int {
	n := 0
	for _, c := range r {
		if c == Star {
			n++
		}
	}
	return n
}

// Table is a relation instance: a schema plus n rows drawn from it. Rows
// are a multiset; duplicates are permitted and significant (a row that
// already appears k times is k-anonymous with zero suppression).
type Table struct {
	schema *Schema
	rows   []Row
}

// NewTable returns an empty table over the given schema.
func NewTable(schema *Schema) *Table {
	return &Table{schema: schema}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len reports the number of rows (the paper's n = |V|).
func (t *Table) Len() int { return len(t.rows) }

// Degree reports the number of attributes (the paper's m).
func (t *Table) Degree() int { return t.schema.Degree() }

// Row returns the i-th row. The returned slice aliases table storage;
// callers that mutate it must Clone first.
func (t *Table) Row(i int) Row { return t.rows[i] }

// Rows returns the underlying row slice. The slice aliases table
// storage.
func (t *Table) Rows() []Row { return t.rows }

// AppendRow appends a pre-interned row. It returns an error if the row
// degree does not match the schema.
func (t *Table) AppendRow(r Row) error {
	if len(r) != t.schema.Degree() {
		return fmt.Errorf("relation: row degree %d does not match schema degree %d", len(r), t.schema.Degree())
	}
	t.rows = append(t.rows, r)
	return nil
}

// AppendStrings interns the given values and appends them as a row.
func (t *Table) AppendStrings(values ...string) error {
	if len(values) != t.schema.Degree() {
		return fmt.Errorf("relation: %d values for schema degree %d", len(values), t.schema.Degree())
	}
	r := make(Row, len(values))
	for j, v := range values {
		if v == StarString {
			r[j] = Star
			continue
		}
		r[j] = t.schema.Attribute(j).Intern(v)
	}
	t.rows = append(t.rows, r)
	return nil
}

// Clone returns a deep copy of the table sharing the schema (alphabets
// are append-only, so sharing is safe for concurrent readers).
func (t *Table) Clone() *Table {
	out := &Table{schema: t.schema, rows: make([]Row, len(t.rows))}
	for i, r := range t.rows {
		out.rows[i] = r.Clone()
	}
	return out
}

// Strings renders row i as external strings.
func (t *Table) Strings(i int) []string {
	r := t.rows[i]
	out := make([]string, len(r))
	for j, c := range r {
		out[j] = t.schema.Attribute(j).Value(c)
	}
	return out
}

// TotalStars counts suppressed entries over the whole table — the
// paper's objective value for a suppressed table.
func (t *Table) TotalStars() int {
	n := 0
	for _, r := range t.rows {
		n += r.Stars()
	}
	return n
}

// Signature returns a canonical string key for row i, used to bucket
// identical anonymized rows. Two rows have equal signatures iff they are
// textually indistinguishable.
func (t *Table) Signature(i int) string {
	return RowSignature(t.rows[i])
}

// RowSignature returns a canonical key for a row independent of any
// table.
func RowSignature(r Row) string {
	var buf [64]byte // the key of a row of up to 16 small codes, on the stack
	return string(appendSignature(buf[:0], r))
}

// appendSignature appends r's key to b: each code in decimal followed
// by '|' (Star is "-1|"). Symbol codes are small, so the encoding is
// canonical and cheap.
func appendSignature(b []byte, r Row) []byte {
	for _, c := range r {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, '|')
	}
	return b
}

// GroupSizes returns, for each row index, the size of its
// textual-equivalence class in the table. Every row's Signature is
// appended to one buffer and the keys are cut from one string, so the
// keys cost two allocations, not one per row.
func (t *Table) GroupSizes() []int {
	buf := make([]byte, 0, len(t.rows)*(t.Degree()*3+1))
	ends := make([]int, len(t.rows))
	for i, r := range t.rows {
		buf = appendSignature(buf, r)
		ends[i] = len(buf)
	}
	all := string(buf)
	counts := make(map[string]int, len(t.rows))
	start := 0
	for _, end := range ends {
		counts[all[start:end]]++
		start = end
	}
	out := make([]int, len(t.rows))
	start = 0
	for i, end := range ends {
		out[i] = counts[all[start:end]]
		start = end
	}
	return out
}

// IsKAnonymous reports whether every row's equivalence class has
// cardinality at least k (Definition 2.2).
func (t *Table) IsKAnonymous(k int) bool {
	if k <= 0 {
		return true
	}
	for _, sz := range t.GroupSizes() {
		if sz < k {
			return false
		}
	}
	return true
}

// ErrSchemaMismatch is returned when combining tables over different
// schemas.
var ErrSchemaMismatch = errors.New("relation: schema mismatch")

// SubTable returns a new table holding clones of the rows at the given
// indices, sharing the schema.
func (t *Table) SubTable(indices []int) *Table {
	out := &Table{schema: t.schema, rows: make([]Row, 0, len(indices))}
	for _, i := range indices {
		out.rows = append(out.rows, t.rows[i].Clone())
	}
	return out
}

// SortedIndex returns row indices sorted lexicographically by symbol
// codes. Used by the sorted-chunks baseline and for canonical output.
func (t *Table) SortedIndex() []int {
	idx := make([]int, len(t.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := t.rows[idx[a]], t.rows[idx[b]]
		for j := range ra {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return idx[a] < idx[b]
	})
	return idx
}

// String renders the table as an aligned text grid, mirroring the
// paper's display tables. Intended for examples and debugging, not
// machine interchange (use CSV for that).
func (t *Table) String() string {
	names := t.schema.Names()
	widths := make([]int, len(names))
	for j, n := range names {
		widths[j] = len(n)
	}
	cells := make([][]string, len(t.rows))
	for i := range t.rows {
		cells[i] = t.Strings(i)
		for j, c := range cells[i] {
			if len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for j, v := range vals {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for p := len(v); p < widths[j]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
