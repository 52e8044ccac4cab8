package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	cfg := Config{Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tbl := range tables {
				if tbl.ID != e.ID {
					t.Errorf("table ID %q under experiment %q", tbl.ID, e.ID)
				}
				if len(tbl.Rows) == 0 {
					t.Errorf("%s table %q has no rows", e.ID, tbl.Title)
				}
				for _, r := range tbl.Rows {
					if len(r) != len(tbl.Header) {
						t.Errorf("%s: row width %d != header width %d", e.ID, len(r), len(tbl.Header))
					}
				}
			}
		})
	}
}

func TestE4E5AllIffsHold(t *testing.T) {
	cfg := Config{Quick: true}
	for _, id := range []string{"E4", "E5"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("%s not found", id)
		}
		tables, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range tables {
			iffCol := -1
			for j, h := range tbl.Header {
				if h == "iff holds" {
					iffCol = j
				}
			}
			if iffCol == -1 {
				t.Fatalf("%s table missing 'iff holds' column", id)
			}
			for _, r := range tbl.Rows {
				parts := strings.Split(r[iffCol], "/")
				if len(parts) != 2 || parts[0] != parts[1] {
					t.Errorf("%s row %v: iff column %q short of full agreement", id, r, r[iffCol])
				}
			}
		}
	}
}

// TestE12SolversAgree: in every E12 row the attribute solver and the
// hierarchy lattice search find the same optimum, and cell suppression
// never costs more than attribute suppression.
func TestE12SolversAgree(t *testing.T) {
	e, _ := Find("E12")
	tables, err := e.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	for _, col := range []string{"attr = lattice", "cell ≤ attribute"} {
		j := -1
		for i, h := range tbl.Header {
			if h == col {
				j = i
			}
		}
		if j == -1 {
			t.Fatalf("E12 table missing %q column", col)
		}
		for _, r := range tbl.Rows {
			parts := strings.Split(r[j], "/")
			if len(parts) != 2 || parts[0] != parts[1] {
				t.Errorf("E12 row %v: %q reads %q, want n/n", r, col, r[j])
			}
		}
	}
}

func TestE9NoViolations(t *testing.T) {
	e, _ := Find("E9")
	tables, err := e.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tables[0].Rows {
		if r[len(r)-1] != "0" {
			t.Errorf("property %q has %s violations", r[0], r[len(r)-1])
		}
	}
}

func TestE7ExamplesAgree(t *testing.T) {
	e, _ := Find("E7")
	tables, err := e.Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E7 produced %d tables, want 2", len(tables))
	}
	// Hospital table's match note.
	foundMatch := false
	for _, n := range tables[0].Notes {
		if strings.Contains(n, "matches paper's printed 2-anonymization: true") {
			foundMatch = true
		}
	}
	if !foundMatch {
		t.Errorf("hospital reproduction does not match the paper: notes = %v", tables[0].Notes)
	}
	// §4 table: all rows agree.
	for _, r := range tables[1].Rows {
		if r[len(r)-1] != "✓" {
			t.Errorf("§4 example row %v does not agree", r)
		}
	}
}

func TestRenderAndRunAll(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"col", "value"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("x", "1")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== EX: demo ==", "col", "x", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E1"); !ok {
		t.Error("E1 not found")
	}
	if _, ok := Find("e10"); !ok {
		t.Error("Find should be case-insensitive")
	}
	if _, ok := Find("E99"); ok {
		t.Error("found nonexistent experiment")
	}
}

func TestConfigSeedDefault(t *testing.T) {
	if (Config{}).seed() != DefaultSeed {
		t.Error("zero config should use DefaultSeed")
	}
	if (Config{Seed: 5}).seed() != 5 {
		t.Error("explicit seed ignored")
	}
}

func TestAllOrdered(t *testing.T) {
	exps := All()
	if len(exps) != 15 {
		t.Fatalf("got %d experiments, want 15", len(exps))
	}
	for i, e := range exps {
		if idOrder(e.ID) != i+1 {
			t.Errorf("experiment %d is %s", i, e.ID)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"a", "b"},
		Notes:  []string{"hello"},
	}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tbl.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### EX: demo", "| a | b |", "| --- | --- |", "| 1 | 2 |", "*hello*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
