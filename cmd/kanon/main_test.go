package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kanon/internal/relation"
)

const sampleCSV = "age,zip,dx\n34,15213,flu\n36,15213,flu\n34,15217,cold\n47,15217,cold\n"

func runCLI(t *testing.T, args []string, stdin string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(context.Background(), args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), err
}

func TestAnonymizeStdinStdout(t *testing.T) {
	out, _, err := runCLI(t, []string{"-k", "2"}, sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("output has %d lines, want 5:\n%s", len(lines), out)
	}
	if lines[0] != "age,zip,dx" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(out, "*") {
		t.Error("no suppression in output")
	}
}

func TestStatsOutput(t *testing.T) {
	_, stderr, err := runCLI(t, []string{"-k", "2", "-stats"}, sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"suppressed entries:", "k-groups:", "approximation bound"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stats missing %q:\n%s", want, stderr)
		}
	}
}

func TestAlgorithmSelection(t *testing.T) {
	for _, algo := range []string{"ball", "exhaustive", "pattern", "exact", "kmember", "mondrian", "sorted", "random"} {
		out, _, err := runCLI(t, []string{"-k", "2", "-algo", algo}, sampleCSV)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out, "age,zip,dx") {
			t.Errorf("%s produced no table", algo)
		}
	}
	if _, _, err := runCLI(t, []string{"-algo", "bogus"}, sampleCSV); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestRefineFlagNeverWorse(t *testing.T) {
	base, _, err := runCLI(t, []string{"-k", "2", "-algo", "random"}, sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	refined, _, err := runCLI(t, []string{"-k", "2", "-algo", "random", "-refine"}, sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(refined, "*") > strings.Count(base, "*") {
		t.Errorf("-refine increased stars: %d → %d", strings.Count(base, "*"), strings.Count(refined, "*"))
	}
}

func TestVerifyFlag(t *testing.T) {
	// Raw data is not 2-anonymous.
	if _, _, err := runCLI(t, []string{"-k", "2", "-verify"}, sampleCSV); err == nil {
		t.Error("verify passed on non-anonymous input")
	}
	// Anonymize first, then verify the output.
	out, _, err := runCLI(t, []string{"-k", "2"}, sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	_, stderr, err := runCLI(t, []string{"-k", "2", "-verify"}, out)
	if err != nil {
		t.Fatalf("verify failed on anonymized output: %v", err)
	}
	if !strings.Contains(stderr, "2-anonymous") {
		t.Errorf("verify stderr = %q", stderr)
	}
}

func TestFileInputOutput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.csv")
	outPath := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(inPath, []byte(sampleCSV), 0o600); err != nil {
		t.Fatal(err)
	}
	_, _, err := runCLI(t, []string{"-k", "2", "-in", inPath, "-out", outPath}, "")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "age,zip,dx") {
		t.Errorf("output file content: %q", data)
	}
}

func TestFileErrors(t *testing.T) {
	if _, _, err := runCLI(t, []string{"-in", "/nonexistent/x.csv"}, ""); err == nil {
		t.Error("accepted missing input file")
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-out", "/nonexistent/dir/out.csv"}, sampleCSV); err == nil {
		t.Error("accepted unwritable output path")
	}
}

func TestBadInputs(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"header only": "a,b\n",
		"ragged":      "a,b\n1\n",
	}
	for name, in := range cases {
		if _, _, err := runCLI(t, []string{"-k", "2"}, in); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
	if _, _, err := runCLI(t, []string{"-k", "99"}, sampleCSV); err == nil {
		t.Error("k > n accepted")
	}
	if _, _, err := runCLI(t, []string{"-bogusflag"}, sampleCSV); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestCSVHelpers(t *testing.T) {
	// The CLI reads and writes through the shared relation codec; this
	// pins the round trip the CLI depends on.
	h, rows, err := relation.ReadCSVRows(strings.NewReader("x,y\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 || len(rows) != 2 || rows[1][1] != "4" {
		t.Errorf("ReadCSVRows = %v %v", h, rows)
	}
	var buf bytes.Buffer
	if err := relation.WriteCSVRows(&buf, h, rows); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x,y\n1,2\n3,4\n" {
		t.Errorf("WriteCSVRows = %q", buf.String())
	}
}

func TestBlockStreaming(t *testing.T) {
	var rows []string
	rows = append(rows, "a,b")
	for i := 0; i < 40; i++ {
		rows = append(rows, string(rune('a'+i%4))+","+string(rune('p'+i%3)))
	}
	in := strings.Join(rows, "\n") + "\n"
	out, _, err := runCLI(t, []string{"-k", "2", "-block", "10"}, in)
	if err != nil {
		t.Fatal(err)
	}
	// Streamed output must verify.
	if _, _, err := runCLI(t, []string{"-k", "2", "-verify"}, out); err != nil {
		t.Fatalf("streamed output failed verification: %v", err)
	}
	// Stats path works with streaming too.
	_, stderr, err := runCLI(t, []string{"-k", "2", "-block", "10", "-stats", "-refine"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "k-groups:") {
		t.Errorf("stats missing under streaming:\n%s", stderr)
	}
}

// TestLogNarratesBlockRun: -log on a -block -refine run prints
// run_start, the refine spans' phase_done lines and run_done, all under
// one run ID, and leaves the release byte-identical to a silent run.
func TestLogNarratesBlockRun(t *testing.T) {
	in := kernelCSV(600)
	args := []string{"-k", "3", "-block", "256", "-refine"}
	silent, _, err := runCLI(t, args, in)
	if err != nil {
		t.Fatal(err)
	}
	out, stderr, err := runCLI(t, append(args, "-log"), in)
	if err != nil {
		t.Fatal(err)
	}
	if out != silent {
		t.Error("release changed with -log")
	}
	seen := map[string]string{} // msg (and phase) → run ID
	for _, ln := range strings.Split(strings.TrimSpace(stderr), "\n") {
		var l struct {
			Msg, Phase string
			RunID      string `json:"run_id"`
		}
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("log line %q: %v", ln, err)
		}
		seen[strings.TrimSpace(l.Msg+" "+l.Phase)] = l.RunID
	}
	id := seen["run_start"]
	for _, want := range []string{"run_start", "phase_done refine", "run_done"} {
		if got, ok := seen[want]; !ok || got != id || id == "" {
			t.Errorf("%s logged under run ID %q (ok=%v), want run_start's %q:\n%s", want, got, ok, id, stderr)
		}
	}
}

// TestBlockHonorsAlgoAndWeights: -block passes -algo and -weights to
// the block path, which runs the ball greedy only, so -algo ball
// releases what the default does and anything it cannot honor fails.
func TestBlockHonorsAlgoAndWeights(t *testing.T) {
	var b strings.Builder
	b.WriteString("a,b,c,d,e\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d\n", i%5, i%3, i%7, i%2, i%4)
	}
	in := b.String()
	want, _, err := runCLI(t, []string{"-k", "3", "-block", "30"}, in)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runCLI(t, []string{"-k", "3", "-block", "30", "-algo", "ball"}, in)
	if err != nil || got != want {
		t.Fatalf("-algo ball -block: %v, output differs from the default: %v", err, got != want)
	}
	for _, extra := range [][]string{{"-algo", "exhaustive"}, {"-algo", "sorted"}, {"-weights", "9,1,1,1,1"}} {
		args := append([]string{"-k", "3", "-block", "30"}, extra...)
		if _, _, err := runCLI(t, args, in); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestWeightsFlag(t *testing.T) {
	in := "a,b\n1,7\n1,8\n2,7\n2,8\n"
	out, _, err := runCLI(t, []string{"-k", "2", "-weights", "100,1"}, in)
	if err != nil {
		t.Fatal(err)
	}
	// The expensive column a must survive.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		if strings.HasPrefix(line, "*") {
			t.Errorf("expensive column starred: %q", line)
		}
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-weights", "1"}, in); err == nil {
		t.Error("accepted wrong-arity weights")
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-weights", "1,x"}, in); err == nil {
		t.Error("accepted non-numeric weight")
	}
	if _, _, err := runCLI(t, []string{"-k", "2", "-weights", "1,-3"}, in); err == nil {
		t.Error("accepted negative weight")
	}
}
