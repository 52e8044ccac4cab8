// Command kanond serves the kanon anonymization pipeline as a
// long-running HTTP service: clients POST CSV tables to /v1/jobs and
// poll for results while the server bounds queue depth, concurrency,
// and per-job deadlines around the NP-hard solve.
//
// Usage:
//
//	kanond -addr :8080 [-workers 4] [-queue 64] [-job-timeout 5m] [-data-dir /var/lib/kanond]
//
// SIGINT/SIGTERM triggers a graceful shutdown: admission stops, the jobs
// this process admitted drain for up to -drain, and whatever is still
// running then is released back to the queue (with -data-dir) or
// cancelled (without).
//
// Every job is dispatched the same way: a claim loop takes leases on
// jobs in the job store and runs them. Without -data-dir the store is
// in memory. With -data-dir, every job is persisted (request, lifecycle
// manifest, journal, trace, result, and per-block checkpoints for
// streamed jobs); after a crash, a restart over the same directory
// claims the unfinished jobs again and resumes streamed jobs from their
// last completed block.
//
// With -data-dir AND -node-id, any number of kanond processes sharing
// the same data directory (each with a distinct -node-id) drain one
// queue together. Jobs are claimed under renewable leases with fencing
// tokens; when a node dies, its jobs become stealable one -lease-ttl
// after its last renewal, and streamed jobs continue from the dead
// node's committed block checkpoints — byte-identically. Any node
// answers status/result/cancel for any job.
//
// Adding -replicate-peers removes the shared-directory requirement:
// each node keeps a private -data-dir and a pull loop converges
// manifests, checkpoints, journals, and result spools across the named
// peers (the other nodes' listen addresses), so the same claim, steal,
// and resume semantics run with no shared filesystem at all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kanon"
	"kanon/internal/obs"
	"kanon/internal/server"
	"kanon/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "kanond:", err)
		os.Exit(1)
	}
}

// run parses flags, starts the server, and blocks until a signal (or a
// close of the optional test-only stop channel) initiates shutdown.
// ready, if non-nil, receives the bound listen address once the server
// is accepting — how tests find a :0 port.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}, ready chan<- string) error {
	fs := flag.NewFlagSet("kanond", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent jobs (0 = half the CPUs)")
	queue := fs.Int("queue", 64, "queued-job capacity; beyond it submissions get 429")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-job deadline and the ceiling for client-requested timeouts")
	resultTTL := fs.Duration("result-ttl", 15*time.Minute, "how long finished jobs stay retrievable")
	maxBody := fs.Int64("max-body", 32<<20, "request body limit in bytes")
	kernelName := fs.String("kernel", "auto", "default distance kernel for jobs that omit ?kernel=: auto, dense, or bitset (output is identical)")
	dataDir := fs.String("data-dir", "", "persist jobs (requests, manifests, results, block checkpoints) under this directory; empty keeps everything in memory")
	nodeID := fs.String("node-id", "", "with -data-dir, join the cluster sharing that directory under this identity; empty holds leases as \"local\", for a node that shares its directory with no one")
	replicatePeers := fs.String("replicate-peers", "", "cluster mode without a shared filesystem: comma-separated base URLs of the other nodes; each node keeps a full copy of -data-dir and pulls what it is missing (requires -node-id)")
	replicateInterval := fs.Duration("replicate-interval", 500*time.Millisecond, "pull-loop interval of the replicated store backend")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "lease duration per claimed job — the crash-failover delay before peers steal a dead node's work")
	claimInterval := fs.Duration("claim-interval", 0, "poll interval for foreign work and expired leases (0 = lease-ttl/5, clamped to [50ms, 2s])")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget before running jobs are released (with -data-dir) or cancelled")
	metricsOut := fs.String("metrics-out", "", "write the final telemetry snapshot (Prometheus text) to this file on graceful shutdown")
	logEvents := fs.Bool("log", true, "emit structured JSON lifecycle events to stderr")
	version := fs.Bool("version", false, "print build provenance and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, obs.ReadBuild().String())
		return nil
	}
	kern, err := kanon.ParseKernel(*kernelName)
	if err != nil {
		return err
	}

	var logger *slog.Logger
	if *logEvents {
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	var st *store.Store
	var repl *store.Replicated
	switch {
	case *replicatePeers != "":
		if *dataDir == "" || *nodeID == "" {
			return errors.New("-replicate-peers requires -data-dir and -node-id (each node is a private replica)")
		}
		var err error
		st, repl, err = store.OpenReplicated(*dataDir, splitPeers(*replicatePeers),
			store.ReplicateOptions{Interval: *replicateInterval})
		if err != nil {
			return err
		}
	case *dataDir != "":
		var err error
		if st, err = store.Open(*dataDir); err != nil {
			return err
		}
	}
	if *nodeID != "" {
		if st == nil {
			return errors.New("-node-id requires -data-dir (the shared directory is the cluster)")
		}
		if err := store.ValidateNodeID(*nodeID); err != nil {
			return err
		}
	}
	srv := server.New(server.Config{
		QueueCapacity: *queue,
		Workers:       *workers,
		JobTimeout:    *jobTimeout,
		ResultTTL:     *resultTTL,
		MaxBodyBytes:  *maxBody,
		Kernel:        kern,
		Log:           logger,
		Store:         st,
		NodeID:        *nodeID,
		LeaseTTL:      *leaseTTL,
		ClaimInterval: *claimInterval,
	})
	hs := &http.Server{Handler: srv}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	if logger != nil {
		logger.Info("kanond_listening", slog.String("addr", ln.Addr().String()))
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	if repl != nil {
		// Start pulling only once we are serving: peers poll us on the
		// same listener, and a symmetric start keeps the first rounds from
		// burning timeouts against half-up processes.
		repl.StartSync()
		defer repl.StopSync()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		return err
	case <-sig:
	case <-stop:
	}

	if logger != nil {
		logger.Info("kanond_draining", slog.Duration("budget", *drain))
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job manager first (admission off, its own jobs finish or
	// are released or cancelled at the deadline), then close the listener.
	draineErr := srv.Shutdown(ctx)
	if err := hs.Shutdown(ctx); err != nil && draineErr == nil {
		draineErr = err
	}
	if draineErr != nil {
		fmt.Fprintf(stderr, "kanond: shutdown forced cancellation: %v\n", draineErr)
	}
	if *metricsOut != "" {
		// The drain is done: this snapshot is the process's final word,
		// matching the -metrics-out contract of kanon and kanon-bench.
		if err := writeMetrics(*metricsOut, srv.Manager().Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// splitPeers parses the comma-separated -replicate-peers value.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// writeMetrics dumps a snapshot as Prometheus text exposition.
func writeMetrics(path string, snap *obs.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WritePrometheus(f, "kanon"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
