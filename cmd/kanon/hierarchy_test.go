package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const hierSpecJSON = `{
  "columns": [
    {"name": "age", "kind": "interval", "width": 10, "min": 0, "max": 79},
    {"name": "zip", "kind": "tree", "paths": {
      "15213": ["152xx"],
      "15217": ["152xx"]
    }},
    {"name": "dx", "kind": "suppress"}
  ]
}`

func TestHierarchyDerivedMode(t *testing.T) {
	out, stderr, err := runCLI(t, []string{"-k", "2", "-algo", "hierarchy", "-stats"}, sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("output has %d lines, want 5:\n%s", len(lines), out)
	}
	for _, want := range []string{"NCP:", "generalized entries:", "k-groups:"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stats missing %q:\n%s", want, stderr)
		}
	}
}

func TestHierarchySpecFileMode(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(hierSpecJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	// Ages and diagnoses already pair up, so the minimum-NCP cut only
	// has to merge the two zips — exactly what the spec's tree offers.
	in := "age,zip,dx\n34,15213,flu\n34,15217,flu\n47,15213,cold\n47,15217,cold\n"
	out, _, err := runCLI(t, []string{"-k", "2", "-algo", "hierarchy", "-hierarchy", specPath}, in)
	if err != nil {
		t.Fatal(err)
	}
	// The released table must use the spec's label, not a derived one.
	if !strings.Contains(out, "152xx") {
		t.Errorf("spec labels missing from release:\n%s", out)
	}
}

func TestHierarchySuppressBudget(t *testing.T) {
	// One outlier row: with a budget it can be starred instead of
	// dragging every column to the root.
	in := "age,zip\n34,15213\n35,15213\n34,15213\n99,90210\n"
	out, _, err := runCLI(t, []string{"-k", "3", "-algo", "hierarchy", "-suppress", "1"}, in)
	if err != nil {
		t.Fatal(err)
	}
	var starred int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		if line == "*,*" {
			starred++
		}
	}
	if starred != 1 {
		t.Errorf("want exactly 1 fully starred row, got %d:\n%s", starred, out)
	}
}

func TestHierarchyDeterministicAcrossWorkers(t *testing.T) {
	var base string
	for _, workers := range []string{"1", "4"} {
		for _, extra := range [][]string{nil, {"-trace"}} {
			args := append([]string{"-k", "2", "-algo", "hierarchy", "-workers", workers}, extra...)
			out, _, err := runCLI(t, args, sampleCSV)
			if err != nil {
				t.Fatal(err)
			}
			if base == "" {
				base = out
			} else if out != base {
				t.Fatalf("workers=%s trace=%v changed the release:\n%s\nvs\n%s", workers, extra != nil, out, base)
			}
		}
	}
}

func TestHierarchyFlagValidation(t *testing.T) {
	if _, _, err := runCLI(t, []string{"-k", "2", "-suppress", "1"}, sampleCSV); err == nil {
		t.Error("-suppress accepted without -algo hierarchy")
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-hierarchy", "x.json"}, sampleCSV); err == nil {
		t.Error("-hierarchy accepted without -algo hierarchy")
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-algo", "hierarchy", "-block", "10"}, sampleCSV); err == nil {
		t.Error("-block accepted with -algo hierarchy")
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-algo", "hierarchy", "-refine"}, sampleCSV); err == nil {
		t.Error("-refine accepted with -algo hierarchy")
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-algo", "hierarchy", "-hierarchy", "/nonexistent/spec.json"}, sampleCSV); err == nil {
		t.Error("missing spec file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"columns":[]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-algo", "hierarchy", "-hierarchy", bad}, sampleCSV); err == nil {
		t.Error("invalid spec file accepted")
	}
}
