// Package stream anonymizes tables too large for the quadratic
// machinery (or for memory) by processing rows in bounded blocks: each
// block is k-anonymized independently, and the concatenation of
// k-anonymous blocks is k-anonymous (every row's k-group lives inside
// its own block). Cost is monotone in block size — a bigger block can
// only offer the greedy more grouping options — which the tests verify
// on fixed corpora, making block size a pure memory/quality dial.
//
// Blocks are independent, so they are anonymized concurrently on the
// par index pool and reassembled in input order; the released table is
// byte-identical for every worker count.
//
// This is a systems extension, not part of the paper; it is what makes
// the Theorem 4.2 algorithm deployable on inputs where even the O(n²)
// distance matrix is unaffordable.
package stream

import (
	"context"
	"fmt"

	"kanon/internal/algo"
	"kanon/internal/metric"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/refine"
	"kanon/internal/relation"
)

// Options configures the streaming pass.
type Options struct {
	// Ctx cancels or bounds the pass: it is checked before each block
	// is claimed (and threaded into the default per-block algorithm), so
	// a cancelled run stops admitting blocks promptly and returns an
	// error wrapping ctx.Err(). Nil means context.Background().
	Ctx context.Context
	// BlockRows is the maximum rows anonymized at once (default 1024,
	// minimum 2k).
	BlockRows int
	// Refine applies cost-direct local search inside each block.
	Refine bool
	// Checkpoint, when non-nil, persists every completed block (its
	// anonymized rows and BlockStat) and lets an interrupted pass
	// resume: blocks the sink already holds are loaded instead of
	// recomputed. Block bounds depend only on (rows, k, BlockRows) and
	// every per-block algorithm is deterministic, so a resumed run's
	// release is byte-identical to an uninterrupted one. A checkpoint
	// whose shape does not match its block (changed parameters, torn
	// write) is ignored and the block is recomputed.
	Checkpoint Checkpoint
	// Workers bounds every pool goroutine the pass starts, as
	// par.Split divides it: blocks are anonymized concurrently on
	// par.Workers(Workers, pending) workers, pending being the blocks
	// a checkpoint does not already hold (0 or negative means all
	// CPUs, counts are clamped to GOMAXPROCS and to that block count),
	// and the default per-block algorithm gets what the budget has
	// left per block worker, at least 1. So 1 forces the sequential
	// path for the whole pass. Output and errors are identical for
	// every worker count.
	Workers int
	// Kernel selects the distance-kernel backend of the default
	// per-block algorithm (metric.Auto, Dense, or Bitset); ignored when
	// Algo is set. At metric.Auto every block builds the bitset kernel,
	// as algo.GreedyBall's lazy cover does at every size. The release
	// is byte-identical for every choice.
	Kernel metric.Choice
	// Algo runs per block; nil means algo.GreedyBall with defaults. A
	// custom Algo must be safe for concurrent calls when Workers != 1
	// (the default GreedyBall is).
	Algo func(t *relation.Table, k int) (*algo.Result, error)
	// Trace is the parent span instrumentation attaches under: a
	// "stream" child span holding one span per block, a queue-depth
	// gauge, worker-utilization counters, per-block latency/cost
	// histograms, and a blocks-completed progress instrument. A
	// narrated Trace also logs each span's end and the block_raised and
	// checkpoint_invalid anomalies. Nil disables it; the release is
	// byte-identical either way.
	Trace *obs.Span
}

// Checkpoint persists completed blocks so a crashed or cancelled pass
// can resume without redoing them. Implementations must be safe for
// concurrent Save calls (each block is saved at most once per pass,
// from whichever worker finishes it); Load is only called before the
// workers start. Rows cross the interface as rendered strings — the
// release's own representation — so a sink can spool them through any
// codec without sharing the table's interning state.
type Checkpoint interface {
	// Load returns the saved block for the exact range [lo, hi), or
	// ok=false if the sink has no (complete) record of it. An error
	// aborts the pass.
	Load(lo, hi int) (rows [][]string, stat *BlockStat, ok bool, err error)
	// Save durably records a block the pass just completed. An error
	// aborts the pass: a run that cannot keep its durability promise
	// fails loudly instead of degrading silently.
	Save(stat BlockStat, rows [][]string) error
}

// BlockStat records one block's outcome for observability: its row
// range in the input, its suppression cost, and — when Options.Refine
// is set — what the local search bought.
type BlockStat struct {
	// Lo and Hi delimit the block's input rows [Lo, Hi).
	Lo, Hi int
	// Cost is the stars the block contributed to the release.
	Cost int
	// Refine holds the block's local-search statistics (rounds, moves,
	// cost before/after); nil unless Options.Refine was set.
	Refine *refine.Stats
}

// Result aggregates the streamed anonymization.
type Result struct {
	// Anonymized holds the full output table (same schema and row order
	// as the input).
	Anonymized *relation.Table
	// Cost is the total stars inserted.
	Cost int
	// Blocks is how many blocks were processed.
	Blocks int
	// BlocksResumed is how many of them were loaded from the Checkpoint
	// sink instead of recomputed; 0 without a checkpoint.
	BlocksResumed int
	// BlockStats has one entry per block, in input order.
	BlockStats []BlockStat
}

// blockResult is one block's output, held until ordered reassembly:
// either a freshly anonymized sub-table (sharing the input's schema) or
// the rendered rows a checkpoint replayed.
type blockResult struct {
	anon    *relation.Table
	rows    [][]string
	stat    BlockStat
	resumed bool
}

// Anonymize processes t in blocks and returns the concatenated
// k-anonymous release.
func Anonymize(t *relation.Table, k int, opt *Options) (*Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		return nil, fmt.Errorf("stream: k = %d < 1", k)
	}
	n := t.Len()
	if n < k {
		return nil, fmt.Errorf("stream: table has %d rows, fewer than k = %d", n, k)
	}
	block := opt.BlockRows
	if block <= 0 {
		block = 1024
	}
	if block < 2*k {
		opt.Trace.Anomaly("block_raised", int64(2*k-block))
		block = 2 * k
	}
	bounds := blockBounds(n, k, block)
	results := make([]blockResult, len(bounds))
	errs := make([]error, len(bounds))

	// Resume: blocks the checkpoint sink already holds are replayed
	// verbatim; only the remainder is anonymized. A record whose shape
	// does not match the block it claims to be (parameters changed, torn
	// write) is dropped and recomputed.
	pending := len(bounds)
	if opt.Checkpoint != nil {
		for bi, b := range bounds {
			lo, hi := b[0], b[1]
			rows, stat, ok, err := opt.Checkpoint.Load(lo, hi)
			if err != nil {
				return nil, fmt.Errorf("stream: loading checkpoint for block [%d,%d): %w", lo, hi, err)
			}
			if !ok {
				continue
			}
			if stat == nil || stat.Lo != lo || stat.Hi != hi || len(rows) != hi-lo || !rowsMatchDegree(rows, t.Degree()) {
				opt.Trace.Anomaly("checkpoint_invalid", int64(hi-lo))
				continue
			}
			results[bi] = blockResult{rows: rows, stat: *stat, resumed: true}
			pending--
		}
	}

	workers, blockWorkers := par.Split(opt.Workers, pending)

	// Instrumentation: a "stream" span over the whole pass, one child
	// span per block (opened by whichever worker claims it), gauges for
	// blocks not yet finished and for the block and per-block worker
	// counts, and busy-time counters from which worker
	// utilization falls out as busy_ns / (workers · wall_ns), both read
	// from the spans' durations. All of it is nil-safe no-ops when
	// opt.Trace is nil, and none of it touches the block results, so
	// the release stays byte-identical.
	sp := opt.Trace.Start("stream")
	defer func() { sp.Counter("stream.wall_ns").Add(int64(sp.End())) }()
	queue := sp.Gauge("stream.queue_depth")
	busy := sp.Counter("stream.worker_busy_ns")
	blocksDone := sp.Counter("stream.blocks_done")
	blockNS := sp.Histogram("stream.block_ns")
	blockCost := sp.Histogram("stream.block_cost")
	progress := sp.Progress("stream.blocks")
	progress.SetTotal(int64(len(bounds)))
	progress.Add(int64(len(bounds) - pending))
	sp.Counter("stream.blocks_resumed").Add(int64(len(bounds) - pending))
	queue.Set(int64(pending))
	sp.Gauge("stream.workers").Set(int64(workers))
	sp.Gauge("stream.block_workers").Set(int64(blockWorkers))

	par.For(len(bounds), workers, func(_, bi int) {
		if results[bi].resumed {
			return
		}
		lo, hi := bounds[bi][0], bounds[bi][1]
		if err := ctx.Err(); err != nil {
			errs[bi] = fmt.Errorf("stream: block [%d,%d): %w", lo, hi, err)
			return
		}
		var bs *obs.Span
		if sp != nil {
			bs = sp.Start(fmt.Sprintf("stream.block[%d,%d)", lo, hi))
			defer func() {
				d := bs.End()
				busy.Add(int64(d))
				blockNS.ObserveDuration(d)
				queue.Add(-1)
				blocksDone.Inc()
				progress.Add(1)
			}()
		}
		indices := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			indices = append(indices, i)
		}
		sub := t.SubTable(indices)
		var r *algo.Result
		var err error
		if opt.Algo != nil {
			r, err = opt.Algo(sub, k)
		} else {
			r, err = algo.GreedyBall(sub, k, &algo.Options{Ctx: ctx, Trace: bs, Kernel: opt.Kernel, Workers: blockWorkers})
		}
		if err != nil {
			errs[bi] = fmt.Errorf("stream: block [%d,%d): %w", lo, hi, err)
			return
		}
		stat := BlockStat{Lo: lo, Hi: hi}
		if opt.Refine {
			rs := bs.Start("refine")
			st, err := refine.Partition(sub, r.Partition, k, &refine.Options{Ctx: ctx})
			rs.End()
			if err != nil {
				errs[bi] = fmt.Errorf("stream: refining block [%d,%d): %w", lo, hi, err)
				return
			}
			st.Record(rs)
			stat.Refine = st
		}
		sup := r.Partition.Suppressor(sub)
		anon := sup.Apply(sub)
		stat.Cost = sup.Stars()
		blockCost.Observe(int64(stat.Cost))
		if opt.Checkpoint != nil {
			rendered := make([][]string, anon.Len())
			for i := range rendered {
				rendered[i] = anon.Strings(i)
			}
			if err := opt.Checkpoint.Save(stat, rendered); err != nil {
				errs[bi] = fmt.Errorf("stream: checkpointing block [%d,%d): %w", lo, hi, err)
				return
			}
		}
		results[bi] = blockResult{anon: anon, stat: stat}
	})
	// Deterministic error propagation: the lowest-index failing block
	// wins, matching what the sequential loop would have reported.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := relation.NewTable(t.Schema())
	res := &Result{BlockStats: make([]BlockStat, 0, len(bounds))}
	for _, br := range results {
		if br.resumed {
			// Replayed rows re-intern into the live schema; the release
			// compares at the string level, so this preserves the
			// byte-identity invariant.
			for _, r := range br.rows {
				if err := out.AppendStrings(r...); err != nil {
					return nil, fmt.Errorf("stream: %w", err)
				}
			}
			res.BlocksResumed++
		} else {
			for i := 0; i < br.anon.Len(); i++ {
				if err := out.AppendRow(br.anon.Row(i).Clone()); err != nil {
					return nil, fmt.Errorf("stream: %w", err)
				}
			}
		}
		res.Cost += br.stat.Cost
		res.Blocks++
		res.BlockStats = append(res.BlockStats, br.stat)
	}
	if !out.IsKAnonymous(k) && k > 1 {
		return nil, fmt.Errorf("stream: internal: output not %d-anonymous", k)
	}
	res.Anonymized = out
	return res, nil
}

// rowsMatchDegree reports whether every replayed row has the schema's
// arity — the cheap structural check that gates checkpoint reuse.
func rowsMatchDegree(rows [][]string, degree int) bool {
	for _, r := range rows {
		if len(r) != degree {
			return false
		}
	}
	return true
}

// blockBounds computes the [lo, hi) row ranges the table is cut into:
// blocks of the given size, with a short tail (< k rows) absorbed into
// the final block so every block can be k-anonymized.
func blockBounds(n, k, block int) [][2]int {
	var bounds [][2]int
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		// The final block must keep ≥ k rows; steal from the previous
		// boundary if the remainder is short.
		if n-hi > 0 && n-hi < k {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
		if hi == n {
			break
		}
	}
	return bounds
}
