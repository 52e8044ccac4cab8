package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kanon/internal/harness"
	"kanon/internal/obs"
)

func runBench(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestList(t *testing.T) {
	out, _, err := runBench(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E4", "E10"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestRunSelected(t *testing.T) {
	out, _, err := runBench(t, "-quick", "-run", "E7,E9")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E7") || !strings.Contains(out, "E9") {
		t.Errorf("selected run output missing tables:\n%s", out)
	}
	if strings.Contains(out, "== E1") {
		t.Error("ran E1 despite -run E7,E9")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, _, err := runBench(t, "-run", "E99"); err == nil {
		t.Error("accepted unknown experiment ID")
	}
}

func TestBadFlag(t *testing.T) {
	if _, _, err := runBench(t, "-nope"); err == nil {
		t.Error("accepted unknown flag")
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite in -short mode")
	}
	out, _, err := runBench(t, "-quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range harness.All() {
		if !strings.Contains(out, "== "+e.ID+":") {
			t.Errorf("full run missing %s", e.ID)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	out, _, err := runBench(t, "-version")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "kanon") || !strings.Contains(out, "go1") {
		t.Errorf("version output = %q", out)
	}
}

func TestManifestAndMetricsOut(t *testing.T) {
	dir := t.TempDir()
	manPath := filepath.Join(dir, "run-manifest.json")
	promPath := filepath.Join(dir, "metrics.prom")
	if _, _, err := runBench(t, "-quick", "-run", "E9", "-manifest", manPath, "-metrics-out", promPath); err != nil {
		t.Fatal(err)
	}
	man, err := harness.ReadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Experiments) != 1 {
		t.Fatalf("experiments = %+v, want just E9", man.Experiments)
	}
	e := man.Experiments[0]
	if e.ID != "E9" || e.Verdict != harness.VerdictOK || e.WallNS <= 0 || e.Tables < 1 {
		t.Errorf("E9 record = %+v", e)
	}
	if man.Build.GoVersion == "" || man.GOMAXPROCS < 1 || man.WallNS <= 0 {
		t.Errorf("provenance not stamped: %+v", man)
	}
	if man.Bench != nil {
		t.Error("Bench set without -regress")
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(prom); err != nil {
		t.Fatalf("metrics file lint: %v\n%s", err, prom)
	}
	if !strings.Contains(string(prom), `kanon_span_seconds{span="E9"}`) {
		t.Errorf("metrics missing the E9 span:\n%s", prom)
	}
}

func TestRegressManifestEmbedsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("bench suite in -short mode")
	}
	manPath := filepath.Join(t.TempDir(), "run-manifest.json")
	out, _, err := runBench(t, "-regress", "-quick", "-manifest", manPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, harness.BenchSchema) {
		t.Errorf("stdout is not a bench report:\n%s", out)
	}
	man, err := harness.ReadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if man.Bench == nil || len(man.Bench.Cases) == 0 {
		t.Errorf("manifest did not embed the bench report: %+v", man.Bench)
	}
}

func TestMarkdownFormat(t *testing.T) {
	out, _, err := runBench(t, "-quick", "-run", "E9", "-format", "md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "### E9:") || !strings.Contains(out, "| --- |") {
		t.Errorf("markdown output malformed:\n%s", out)
	}
	if _, _, err := runBench(t, "-format", "bogus", "-run", "E9"); err == nil {
		t.Error("accepted unknown format")
	}
}
