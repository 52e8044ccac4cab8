package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"math/rand"

	"kanon/internal/dataset"
	"kanon/internal/relation"
	"kanon/internal/stream"
)

// reservePorts binds n ephemeral listeners, records their addresses,
// and releases them — the replicated cluster needs every node's
// address before any node starts, since each one names its peers on
// the command line.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return addrs
}

// submitKeyed posts a CSV body with an Idempotency-Key and returns the
// response, decoded status, and replay marker.
func submitKeyed(t *testing.T, base, query, key string, body []byte) (jobStatus, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs?"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
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
	return st, resp
}

// countReplicaJobs asks one node how many job records its store holds.
func countReplicaJobs(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/replica/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	return len(jobs)
}

// TestReplicatedFailoverByteIdentical is the no-shared-filesystem
// kill-and-steal e2e: three kanond processes with three private data
// directories converge through -replicate-peers pull loops. A long
// multi-block job is submitted (with an Idempotency-Key) through one
// node; the node running it is SIGKILLed mid-stream; a survivor must
// steal the lease from its own replica of the job, finish it, and
// release bytes identical to a single-node in-process run. Replaying
// the submission with the same key against a survivor must return the
// original job — exactly one job exists cluster-wide.
func TestReplicatedFailoverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns three subprocesses and runs a multi-second job")
	}

	const kAnon, blockRows = 3, 500
	rng := rand.New(rand.NewSource(97))
	tab := dataset.Census(rng, 10000, 6)
	header, rows := tableOf(tab)
	totalBlocks := (tab.Len() + blockRows - 1) / blockRows
	var body bytes.Buffer
	if err := relation.WriteCSVRows(&body, header, rows); err != nil {
		t.Fatal(err)
	}

	// Boot 3 nodes, each with a PRIVATE data directory; addresses are
	// reserved up front so every node can name its peers.
	ids := []string{"node-a", "node-b", "node-c"}
	addrs := reservePorts(t, len(ids))
	dirs := make(map[string]string, len(ids))
	nodes := make(map[string]*node, len(ids))
	for i, id := range ids {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, "http://"+a)
			}
		}
		dir := t.TempDir()
		dirs[id] = dir
		cmd, addr := startHelper(t, dir,
			"-addr", addrs[i],
			"-node-id", id,
			"-replicate-peers", strings.Join(peers, ","),
			"-replicate-interval", "100ms",
			"-lease-ttl", "2s", "-claim-interval", "100ms", "-workers", "2")
		n := &node{id: id, cmd: cmd, base: "http://" + addr}
		nodes[id] = n
		defer func() {
			_ = n.cmd.Process.Signal(syscall.SIGTERM)
			_ = n.cmd.Wait()
		}()
	}
	entry := nodes["node-a"].base

	const idemKey = "e2e-replicated-1"
	streamJob, resp := submitKeyed(t, entry,
		fmt.Sprintf("k=%d&block=%d&refine=true&workers=1", kAnon, blockRows), idemKey, body.Bytes())
	if got := resp.Header.Get("Idempotency-Key"); got != idemKey {
		t.Errorf("acceptance did not echo the key: %q", got)
	}

	// Wait until the job is demonstrably mid-flight on some node: the
	// claimant's own directory holds committed blocks with more to go.
	var victim *node
	deadline := time.Now().Add(60 * time.Second)
	for victim == nil {
		st := getStatus(t, entry, streamJob.ID)
		if st.State == "running" && st.Node != "" {
			n := len(statFiles(t, dirs[st.Node], streamJob.ID))
			if n >= 1 && n < totalBlocks {
				victim = nodes[st.Node]
				break
			}
			if n >= totalBlocks {
				t.Fatalf("job finished all %d blocks before the kill; enlarge the instance", totalBlocks)
			}
		}
		if st.State == "succeeded" {
			t.Fatal("job succeeded before the kill window; enlarge the instance")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a mid-flight claimed state")
		}
		time.Sleep(time.Millisecond)
	}
	// Kill as soon as a survivor's pull loop holds a replicated
	// checkpoint of the job, so the steal resumes from a replica.
	replicated := 0
	for replicated == 0 {
		if n := len(statFiles(t, dirs[victim.id], streamJob.ID)); n >= totalBlocks {
			t.Fatalf("job finished all %d blocks before the kill; enlarge the instance", totalBlocks)
		}
		for id, dir := range dirs {
			if id != victim.id {
				replicated += len(statFiles(t, dir, streamJob.ID))
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no survivor replicated a checkpoint of the job")
		}
		time.Sleep(time.Millisecond)
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.cmd.Wait()
	delete(nodes, victim.id)
	t.Logf("killed %s mid-stream; survivors hold %d replicated checkpoint files", victim.id, replicated)

	// A survivor steals the lease from its replica and finishes.
	var survivor *node
	for _, n := range nodes {
		survivor = n
		break
	}
	final := waitSucceeded(t, survivor.base, streamJob.ID, 180*time.Second)
	if final.Node == victim.id || final.Node == "" {
		t.Fatalf("job finished under node %q, want a surviving peer (killed %s)", final.Node, victim.id)
	}

	// Byte identity with an uninterrupted single-node run.
	sres, err := stream.Anonymize(tab, kAnon, &stream.Options{BlockRows: blockRows, Refine: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := make([][]string, sres.Anonymized.Len())
	for i := range wantRows {
		wantRows[i] = sres.Anonymized.Strings(i)
	}
	want := renderCSV(t, header, wantRows)

	// Every survivor converges to the same release bytes — the result
	// spool replicates to nodes that never ran the job.
	for _, n := range nodes {
		waitSucceeded(t, n.base, streamJob.ID, 60*time.Second)
		deadline := time.Now().Add(60 * time.Second)
		for {
			rr, err := http.Get(n.base + "/v1/jobs/" + streamJob.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(rr.Body)
			rr.Body.Close()
			if rr.StatusCode == http.StatusOK {
				if !bytes.Equal(got, want) {
					t.Fatalf("release served by %s differs from single-node run (%d vs %d bytes)",
						n.id, len(got), len(want))
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("result never became readable on %s (last status %d)", n.id, rr.StatusCode)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Exactly-once: replaying the submission with the same key against
	// each survivor returns the original job, marked as a replay, and
	// no node's store grew a twin.
	for _, n := range nodes {
		st, resp := submitKeyed(t, n.base,
			fmt.Sprintf("k=%d&block=%d&refine=true&workers=1", kAnon, blockRows), idemKey, body.Bytes())
		if st.ID != streamJob.ID {
			t.Fatalf("replay via %s admitted a twin: %s (original %s)", n.id, st.ID, streamJob.ID)
		}
		if resp.Header.Get("Idempotency-Replay") != "true" {
			t.Errorf("replay via %s missing Idempotency-Replay: true", n.id)
		}
		if got := countReplicaJobs(t, n.base); got != 1 {
			t.Fatalf("node %s holds %d job records after the replay, want exactly 1", n.id, got)
		}
	}
}

// TestReplicatePeersFlagValidation: misconfiguration fails at startup
// with a clear error, not at the first pull.
func TestReplicatePeersFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-replicate-peers", "http://127.0.0.1:1"},                                                                         // no -data-dir
		{"-data-dir", t.TempDir(), "-replicate-peers", "http://127.0.0.1:1"},                                               // no -node-id
		{"-data-dir", t.TempDir(), "-node-id", "n1", "-replicate-peers", "not-a-url"},                                      // bad peer
		{"-data-dir", t.TempDir(), "-node-id", "n1", "-replicate-peers", " , "},                                            // empty list
		{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-node-id", "bad/id", "-replicate-peers", "http://127.0.0.1:1"}, // bad node id
	} {
		var errOut bytes.Buffer
		if err := run(args, io.Discard, &errOut, nil, nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
