package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"kanon/internal/algo"
	"kanon/internal/dataset"
	"kanon/internal/relation"
)

// memCheckpoint is an in-memory stream.Checkpoint for tests: a map of
// committed blocks plus counters for the interface traffic.
type memCheckpoint struct {
	mu     sync.Mutex
	blocks map[[2]int]memBlock
	saves  int
	loads  int
}

type memBlock struct {
	stat BlockStat
	rows [][]string
}

func newMemCheckpoint() *memCheckpoint {
	return &memCheckpoint{blocks: make(map[[2]int]memBlock)}
}

func (c *memCheckpoint) Load(lo, hi int) ([][]string, *BlockStat, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loads++
	b, ok := c.blocks[[2]int{lo, hi}]
	if !ok {
		return nil, nil, false, nil
	}
	st := b.stat
	return b.rows, &st, true, nil
}

func (c *memCheckpoint) Save(stat BlockStat, rows [][]string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.saves++
	c.blocks[[2]int{stat.Lo, stat.Hi}] = memBlock{stat: stat, rows: rows}
	return nil
}

// sameRelease asserts two results are byte-identical releases.
func sameRelease(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Cost != want.Cost || got.Blocks != want.Blocks {
		t.Fatalf("cost/blocks %d/%d, want %d/%d", got.Cost, got.Blocks, want.Cost, want.Blocks)
	}
	if want.Anonymized.Len() != got.Anonymized.Len() {
		t.Fatalf("rows %d, want %d", got.Anonymized.Len(), want.Anonymized.Len())
	}
	for i := 0; i < want.Anonymized.Len(); i++ {
		a, b := want.Anonymized.Strings(i), got.Anonymized.Strings(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("cell (%d,%d): %q, want %q", i, j, b[j], a[j])
			}
		}
	}
	if len(want.BlockStats) != len(got.BlockStats) {
		t.Fatalf("stats len %d, want %d", len(got.BlockStats), len(want.BlockStats))
	}
	for bi := range want.BlockStats {
		if want.BlockStats[bi].Lo != got.BlockStats[bi].Lo ||
			want.BlockStats[bi].Hi != got.BlockStats[bi].Hi ||
			want.BlockStats[bi].Cost != got.BlockStats[bi].Cost {
			t.Fatalf("block %d stats %+v, want %+v", bi, got.BlockStats[bi], want.BlockStats[bi])
		}
	}
}

// TestCheckpointFullResume: a completed pass leaves the sink holding
// every block; a re-run must replay all of them — zero algorithm calls —
// and release byte-identical output.
func TestCheckpointFullResume(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := dataset.Census(rng, 200, 6)
	ck := newMemCheckpoint()
	opts := func(calls *int) *Options {
		return &Options{BlockRows: 50, Workers: 1, Checkpoint: ck,
			Algo: func(bt *relation.Table, k int) (*algo.Result, error) {
				*calls++
				return algo.GreedyBall(bt, k, nil)
			}}
	}
	var firstCalls int
	first, err := Anonymize(tab, 3, opts(&firstCalls))
	if err != nil {
		t.Fatal(err)
	}
	if firstCalls != first.Blocks || first.BlocksResumed != 0 {
		t.Fatalf("first pass: calls=%d resumed=%d blocks=%d", firstCalls, first.BlocksResumed, first.Blocks)
	}
	if ck.saves != first.Blocks {
		t.Fatalf("sink holds %d saves for %d blocks", ck.saves, first.Blocks)
	}

	var resumeCalls int
	resumed, err := Anonymize(tab, 3, opts(&resumeCalls))
	if err != nil {
		t.Fatal(err)
	}
	if resumeCalls != 0 {
		t.Fatalf("full resume recomputed %d blocks", resumeCalls)
	}
	if resumed.BlocksResumed != first.Blocks {
		t.Fatalf("BlocksResumed = %d, want %d", resumed.BlocksResumed, first.Blocks)
	}
	sameRelease(t, first, resumed)
}

// TestCheckpointPartialResume simulates a crash after some blocks
// committed: only the missing ones are recomputed, and the release is
// byte-identical to an uninterrupted run, for every worker count.
func TestCheckpointPartialResume(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tab := dataset.Census(rng, 250, 6)
	clean, err := Anonymize(tab, 3, &Options{BlockRows: 50, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		full := newMemCheckpoint()
		if _, err := Anonymize(tab, 3, &Options{BlockRows: 50, Workers: 1, Checkpoint: full}); err != nil {
			t.Fatal(err)
		}
		// Keep only blocks 0 and 2 — the "crash" lost the rest.
		partial := newMemCheckpoint()
		kept := 0
		for key, b := range full.blocks {
			if key[0] == 0 || key[0] == 100 {
				partial.blocks[key] = b
				kept++
			}
		}
		if kept != 2 {
			t.Fatalf("kept %d blocks, want 2", kept)
		}
		var calls atomic.Int64 // bumped by concurrent block workers
		res, err := Anonymize(tab, 3, &Options{BlockRows: 50, Workers: workers, Checkpoint: partial,
			Algo: func(bt *relation.Table, k int) (*algo.Result, error) {
				calls.Add(1)
				return algo.GreedyBall(bt, k, nil)
			}})
		if err != nil {
			t.Fatal(err)
		}
		if res.BlocksResumed != 2 {
			t.Fatalf("workers=%d: BlocksResumed = %d, want 2", workers, res.BlocksResumed)
		}
		if workers == 1 && calls.Load() != int64(res.Blocks-2) {
			t.Fatalf("recomputed %d blocks, want %d", calls.Load(), res.Blocks-2)
		}
		sameRelease(t, clean, res)
	}
}

// TestCheckpointInvalidRecomputed: records whose shape disagrees with
// the block they claim to be — wrong range, wrong row count, wrong
// arity — are dropped and the block recomputed, never trusted.
func TestCheckpointInvalidRecomputed(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tab := dataset.Census(rng, 100, 6)
	clean, err := Anonymize(tab, 2, &Options{BlockRows: 50, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func(*memCheckpoint)) {
		ck := newMemCheckpoint()
		if _, err := Anonymize(tab, 2, &Options{BlockRows: 50, Workers: 1, Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		mutate(ck)
		res, err := Anonymize(tab, 2, &Options{BlockRows: 50, Workers: 1, Checkpoint: ck})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BlocksResumed != 1 {
			t.Fatalf("%s: BlocksResumed = %d, want 1 (damaged block recomputed)", name, res.BlocksResumed)
		}
		sameRelease(t, clean, res)
	}
	corrupt("stat range", func(ck *memCheckpoint) {
		b := ck.blocks[[2]int{0, 50}]
		b.stat.Lo, b.stat.Hi = 7, 57
		ck.blocks[[2]int{0, 50}] = b
	})
	corrupt("row count", func(ck *memCheckpoint) {
		b := ck.blocks[[2]int{0, 50}]
		b.rows = b.rows[:10]
		ck.blocks[[2]int{0, 50}] = b
	})
	corrupt("arity", func(ck *memCheckpoint) {
		b := ck.blocks[[2]int{0, 50}]
		b.rows[3] = []string{"just-one"}
		ck.blocks[[2]int{0, 50}] = b
	})
}

// TestCheckpointSaveErrorAborts: a sink that cannot keep its durability
// promise fails the pass loudly.
func TestCheckpointSaveErrorAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tab := dataset.Uniform(rng, 60, 4, 3)
	_, err := Anonymize(tab, 2, &Options{BlockRows: 30, Workers: 1, Checkpoint: failingSink{}})
	if err == nil {
		t.Fatal("pass succeeded with a failing checkpoint sink")
	}
}

type failingSink struct{}

func (failingSink) Load(lo, hi int) ([][]string, *BlockStat, bool, error) {
	return nil, nil, false, nil
}
func (failingSink) Save(stat BlockStat, rows [][]string) error {
	return fmt.Errorf("disk full")
}
