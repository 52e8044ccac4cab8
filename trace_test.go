package kanon_test

// Determinism under tracing: Options.Trace observes a run, it must
// never steer it. These tests re-run the same instance with tracing on
// and off, across worker counts, and require byte-identical output —
// the property the instrumentation layer promises and the CI race job
// leans on.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kanon"
)

// genTable builds a deterministic categorical table.
func genTable(n, m int, seed int64) ([]string, [][]string) {
	rng := rand.New(rand.NewSource(seed))
	header := make([]string, m)
	for j := range header {
		header[j] = fmt.Sprintf("c%d", j)
	}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = make([]string, m)
		for j := range rows[i] {
			rows[i][j] = fmt.Sprintf("v%d", rng.Intn(5))
		}
	}
	return header, rows
}

func TestTraceDeterminism(t *testing.T) {
	header, rows := genTable(240, 6, 42)
	algos := []kanon.Algorithm{kanon.AlgoGreedyBall, kanon.AlgoPattern}
	for _, alg := range algos {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", alg, workers), func(t *testing.T) {
				base, err := kanon.Anonymize(header, rows, 3, &kanon.Options{
					Algorithm: alg, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				traced, err := kanon.Anonymize(header, rows, 3, &kanon.Options{
					Algorithm: alg, Workers: workers, Trace: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if base.Cost != traced.Cost {
					t.Errorf("cost changed under tracing: %d vs %d", base.Cost, traced.Cost)
				}
				if !reflect.DeepEqual(base.Rows, traced.Rows) {
					t.Error("released rows changed under tracing")
				}
				if !reflect.DeepEqual(base.Groups, traced.Groups) {
					t.Error("groups changed under tracing")
				}
				if base.Stats != nil {
					t.Error("Stats set without Options.Trace")
				}
				if traced.Stats == nil {
					t.Fatal("Stats nil with Options.Trace")
				}
				if len(traced.Stats.Spans) == 0 || traced.Stats.Spans[0].DurNS <= 0 {
					t.Errorf("trace has no spans: %+v", traced.Stats)
				}
				if len(traced.Stats.Counters) == 0 {
					t.Error("trace has no counters")
				}
				if got := traced.Stats.Counters["kanon.entries_suppressed"]; got != int64(traced.Cost) {
					t.Errorf("kanon.entries_suppressed = %d, want cost %d", got, traced.Cost)
				}
			})
		}
	}
}

// TestStatsJSONStable marshals the same run's Stats twice and requires
// identical bytes — the machine-readable trace is deterministic within
// a run (across runs, durations differ by nature).
func TestStatsJSONStable(t *testing.T) {
	header, rows := genTable(120, 5, 7)
	res, err := kanon.Anonymize(header, rows, 3, &kanon.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("Stats JSON not stable across marshals")
	}
	var back kanon.Stats
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatalf("Stats JSON does not round-trip: %v", err)
	}
}

// TestTraceExactAndWeighted covers the remaining facade arms: the DP
// and the weighted ball path must also be unaffected by tracing.
func TestTraceExactAndWeighted(t *testing.T) {
	header, rows := genTable(14, 4, 3)
	for _, opts := range []*kanon.Options{
		{Algorithm: kanon.AlgoExact},
		{Algorithm: kanon.AlgoGreedyBall, ColumnWeights: []int{3, 1, 1, 5}},
	} {
		plain := *opts
		res, err := kanon.Anonymize(header, rows, 2, &plain)
		if err != nil {
			t.Fatal(err)
		}
		withTrace := *opts
		withTrace.Trace = true
		traced, err := kanon.Anonymize(header, rows, 2, &withTrace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != traced.Cost || !reflect.DeepEqual(res.Rows, traced.Rows) {
			t.Errorf("%+v: output changed under tracing", opts)
		}
		if traced.Stats == nil || len(traced.Stats.Spans) == 0 {
			t.Errorf("%+v: missing trace", opts)
		}
	}
}

// TestTraceRefineCounters: a traced run with Refine reports the local
// search's work under the kanon.refine span. The stars it saved are the
// difference between the unrefined and the refined release's cost.
func TestTraceRefineCounters(t *testing.T) {
	header, rows := genTable(240, 6, 42)
	plain, err := kanon.Anonymize(header, rows, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := kanon.Anonymize(header, rows, 3, &kanon.Options{Refine: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	c := refined.Stats.Counters
	if got, want := c["refine.cost_saved"], int64(plain.Cost-refined.Cost); got != want || want <= 0 {
		t.Errorf("refine.cost_saved = %d, want %d (> 0)", got, want)
	}
	if c["refine.rounds"] < 1 || c["refine.moves"] < 1 {
		t.Errorf("refine.rounds = %d, refine.moves = %d; want both ≥ 1", c["refine.rounds"], c["refine.moves"])
	}
}
