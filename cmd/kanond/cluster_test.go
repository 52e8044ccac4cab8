package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"math/rand"

	"kanon"
	"kanon/internal/dataset"
	"kanon/internal/obs"
	"kanon/internal/relation"
	"kanon/internal/stream"
)

// node is one live kanond process in the e2e cluster.
type node struct {
	id   string
	cmd  *exec.Cmd
	base string
}

// jobStatus is the slice of the status JSON the e2e acts on.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Node  string `json:"node"`
}

// submitCSV posts a table and returns the accepted job's status.
func submitCSV(t *testing.T, base, query string, header []string, rows [][]string) jobStatus {
	t.Helper()
	var body bytes.Buffer
	if err := relation.WriteCSVRows(&body, header, rows); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs?"+query, "text/csv", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit %q: status %d, id %q", query, resp.StatusCode, st.ID)
	}
	return st
}

// getStatus polls one node for a job's status.
func getStatus(t *testing.T, base, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitSucceeded polls until the job succeeds, failing fast on a
// terminal failure.
func waitSucceeded(t *testing.T, base, id string, timeout time.Duration) jobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		switch st.State {
		case "succeeded":
			return st
		case "failed", "canceled":
			t.Fatalf("job %s ended in %q", id, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getResult fetches the released CSV bytes of a succeeded job.
func getResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, b)
	}
	return b
}

// getEvents fetches a job's decoded lifecycle journal.
func getEvents(t *testing.T, base, id string) []obs.JournalEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: status %d", id, resp.StatusCode)
	}
	var events []obs.JournalEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	return events
}

// getTrace fetches a job's merged span timeline.
func getTrace(t *testing.T, base, id string) *obs.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: status %d", id, resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// renderCSV flattens an in-process result into the byte form the
// service releases.
func renderCSV(t *testing.T, header []string, rows [][]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := relation.WriteCSVRows(&buf, header, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scrapeCounter reads one Prometheus counter off a node's /metrics.
func scrapeCounter(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + name + `\S*\s+(\d+)$`)
	if m := re.FindSubmatch(b); m != nil {
		n, _ := strconv.Atoi(string(m[1]))
		return n
	}
	return 0
}

// tableOf renders a dataset table into header/rows form.
func tableOf(t *relation.Table) (header []string, rows [][]string) {
	header = t.Schema().Names()
	rows = make([][]string, t.Len())
	for i := range rows {
		rows[i] = t.Strings(i)
	}
	return header, rows
}

// TestClusterFailoverByteIdentical is the 3-node kill-and-steal e2e:
// three kanond processes share one data directory; a batch covering
// every algorithm × kernel combination the service exposes is submitted
// through one of them; the node running the long multi-block stream job
// is SIGKILLed mid-flight; a surviving node must steal the lease, resume
// from the dead node's committed checkpoints, and every job's release —
// stolen or not — must be byte-identical to a single-node in-process run
// of the same pipeline.
func TestClusterFailoverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns three subprocesses and runs a multi-second job")
	}
	dataDir := t.TempDir()

	// The long job: a multi-block refine stream big enough to guarantee
	// a mid-flight kill window.
	const kAnon, blockRows = 3, 500
	rng := rand.New(rand.NewSource(83))
	streamTab := dataset.Census(rng, 10000, 6)
	streamHeader, streamRows := tableOf(streamTab)
	totalBlocks := (streamTab.Len() + blockRows - 1) / blockRows

	// The quick batch: every algorithm × kernel combination the API
	// exposes, each with an in-process single-node baseline.
	medHeader, medRows := tableOf(dataset.Census(rand.New(rand.NewSource(84)), 300, 4))
	smallHeader, smallRows := tableOf(dataset.Census(rand.New(rand.NewSource(85)), 20, 3))
	type combo struct {
		query  string
		header []string
		rows   [][]string
		k      int
		opts   kanon.Options
	}
	combos := []combo{
		{"k=3&algo=ball&kernel=dense", medHeader, medRows, 3,
			kanon.Options{Algorithm: kanon.AlgoGreedyBall, Kernel: kanon.KernelDense}},
		{"k=3&algo=ball&kernel=bitset", medHeader, medRows, 3,
			kanon.Options{Algorithm: kanon.AlgoGreedyBall, Kernel: kanon.KernelBitset}},
		{"k=3&algo=ball&refine=true", medHeader, medRows, 3,
			kanon.Options{Algorithm: kanon.AlgoGreedyBall, Refine: true}},
		{"k=3&algo=random&seed=9", medHeader, medRows, 3,
			kanon.Options{Algorithm: kanon.AlgoRandom, Seed: 9}},
		{"k=2&algo=exact&kernel=dense", smallHeader, smallRows, 2,
			kanon.Options{Algorithm: kanon.AlgoExact, Kernel: kanon.KernelDense}},
	}

	// Boot the cluster: 3 nodes, one shared directory, short leases so
	// failover lands inside the test budget.
	nodes := make(map[string]*node)
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		cmd, addr := startHelper(t, dataDir,
			"-node-id", id, "-lease-ttl", "2s", "-claim-interval", "100ms", "-workers", "2")
		n := &node{id: id, cmd: cmd, base: "http://" + addr}
		nodes[id] = n
		defer func() {
			_ = n.cmd.Process.Signal(syscall.SIGTERM)
			_ = n.cmd.Wait()
		}()
	}
	entry := nodes["node-a"].base

	// Submit the whole batch through one node; the cluster spreads it.
	streamJob := submitCSV(t, entry,
		fmt.Sprintf("k=%d&block=%d&refine=true&workers=1", kAnon, blockRows),
		streamHeader, streamRows)
	batch := make([]jobStatus, len(combos))
	for i, c := range combos {
		batch[i] = submitCSV(t, entry, c.query, c.header, c.rows)
	}

	// Wait until the stream job is demonstrably mid-flight — claimed by
	// some node, with committed blocks behind it and blocks to go.
	var victim *node
	deadline := time.Now().Add(60 * time.Second)
	for {
		n := len(statFiles(t, dataDir, streamJob.ID))
		if n >= 1 && n < totalBlocks {
			st := getStatus(t, entry, streamJob.ID)
			if st.State == "running" && st.Node != "" {
				victim = nodes[st.Node]
				break
			}
		}
		if n >= totalBlocks {
			t.Fatalf("stream job finished all %d blocks before the kill; enlarge the instance", totalBlocks)
		}
		if time.Now().After(deadline) {
			t.Fatal("stream job never reached a mid-flight claimed state")
		}
		time.Sleep(time.Millisecond)
	}
	if victim == nil {
		t.Fatal("could not resolve the stream job's node to a cluster member")
	}
	preKill := statFiles(t, dataDir, streamJob.ID)
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.cmd.Wait()
	delete(nodes, victim.id)
	t.Logf("killed %s mid-stream with %d/%d blocks committed", victim.id, len(preKill), totalBlocks)

	// Poll through a survivor: a peer must steal the lease once it
	// expires and run the job to completion.
	var survivor *node
	for _, n := range nodes {
		survivor = n
		break
	}
	final := waitSucceeded(t, survivor.base, streamJob.ID, 180*time.Second)
	if final.Node == victim.id || final.Node == "" {
		t.Fatalf("stream job finished under node %q, want a surviving peer (killed %s)", final.Node, victim.id)
	}
	stolen := 0
	for _, n := range nodes {
		stolen += scrapeCounter(t, n.base, "kanon_server_leases_stolen")
	}
	if stolen < 1 {
		t.Errorf("no survivor counted a lease steal")
	}

	// The stolen stream job's release must be byte-identical to an
	// uninterrupted single-node run, and the dead node's checkpoints
	// must have been replayed, not recomputed.
	sres, err := stream.Anonymize(streamTab, kAnon, &stream.Options{BlockRows: blockRows, Refine: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := make([][]string, sres.Anonymized.Len())
	for i := range wantRows {
		wantRows[i] = sres.Anonymized.Strings(i)
	}
	got := getResult(t, survivor.base, streamJob.ID)
	if !bytes.Equal(got, renderCSV(t, streamHeader, wantRows)) {
		t.Fatalf("stolen stream release differs from single-node run (%d bytes)", len(got))
	}
	postRun := statFiles(t, dataDir, streamJob.ID)
	for name, mtime := range preKill {
		after, ok := postRun[name]
		if !ok {
			t.Fatalf("checkpoint %s vanished across the steal", name)
		}
		if !after.Equal(mtime) {
			t.Errorf("checkpoint %s rewritten after the steal (mtime %v → %v)", name, mtime, after)
		}
	}

	// The durable journal must narrate the failover: claimed by the
	// victim, lease stolen by the survivor, checkpoints resumed — every
	// surviving node serves the same story about a job whose first owner
	// no longer exists.
	for _, n := range nodes {
		events := getEvents(t, n.base, streamJob.ID)
		firstClaim := -1
		for i, e := range events {
			if e.Event == "claimed" {
				firstClaim = i
				break
			}
		}
		if firstClaim < 0 || events[firstClaim].Node != victim.id {
			t.Fatalf("journal via %s: first claim not by the victim %s: %+v", n.id, victim.id, events)
		}
		stoleAt, resumedAt, succeededAt := -1, -1, -1
		for i, e := range events {
			switch e.Event {
			case "lease_stolen":
				if stoleAt < 0 {
					stoleAt = i
					if e.Node == victim.id || e.Node == "" {
						t.Errorf("lease_stolen recorded by %q, want a surviving peer", e.Node)
					}
					if e.Fence <= events[firstClaim].Fence {
						t.Errorf("steal fence %d not above the victim's claim fence %d",
							e.Fence, events[firstClaim].Fence)
					}
				}
			case "checkpoint_resumed":
				resumedAt = i
			case "succeeded":
				succeededAt = i
			}
		}
		if stoleAt < firstClaim || resumedAt < stoleAt || succeededAt < resumedAt {
			t.Fatalf("journal via %s out of order (claim %d, steal %d, resume %d, success %d): %+v",
				n.id, firstClaim, stoleAt, resumedAt, succeededAt, events)
		}
	}

	// The merged trace must cover both segments as one timeline: a root
	// span per run, naming the victim then the thief, in wall-clock
	// order.
	trace := getTrace(t, survivor.base, streamJob.ID)
	if len(trace.Spans) < 2 {
		t.Fatalf("merged trace has %d root spans, want the victim's and the thief's: %+v",
			len(trace.Spans), trace.Spans)
	}
	sawVictim, sawThief := false, false
	lastWall := int64(0)
	for _, sp := range trace.Spans {
		if sp.WallNS < lastWall {
			t.Fatalf("trace roots not in wall-clock order: %+v", trace.Spans)
		}
		lastWall = sp.WallNS
		switch sp.Name {
		case "job@" + victim.id:
			sawVictim = true
			if sawThief {
				t.Errorf("victim segment after the thief's: %+v", trace.Spans)
			}
		case "job@" + final.Node:
			sawThief = true
		}
	}
	if !sawVictim || !sawThief {
		t.Fatalf("merged trace does not name both nodes (victim %s, thief %s): %+v",
			victim.id, final.Node, trace.Spans)
	}

	// Every combo in the batch — wherever it ran, killed node included —
	// must release byte-identically to its single-node baseline, served
	// by every surviving node.
	for i, c := range combos {
		st := waitSucceeded(t, survivor.base, batch[i].ID, 120*time.Second)
		if st.Node == "" {
			t.Errorf("combo %q: no node recorded", c.query)
		}
		opts := c.opts
		direct, err := kanon.Anonymize(c.header, c.rows, c.k, &opts)
		if err != nil {
			t.Fatal(err)
		}
		want := renderCSV(t, direct.Header, direct.Rows)
		for _, n := range nodes {
			if got := getResult(t, n.base, batch[i].ID); !bytes.Equal(got, want) {
				t.Errorf("combo %q served by %s differs from single-node run", c.query, n.id)
			}
		}
	}
}
