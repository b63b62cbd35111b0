// Command yieldd serves the yield study as a long-running HTTP JSON
// service: clients POST study parameters (seed, chips, constraints,
// scheme set) and get back loss breakdowns, constraint totals and
// scatter data. POST /v1/sweep explores whole design-space grids
// (technology axes × cache geometries × constraint sets) in one job,
// reusing correlated Monte Carlo draws across neighbouring configs and
// reducing the results to Pareto frontiers; -max-sweep-configs bounds
// the grid a single request may resolve to. Identical requests share
// one Monte Carlo build (singleflight) and later ones are answered
// from the result cache; when the bounded build queue fills, requests
// are shed with 429 and a Retry-After estimate. Every admitted build
// gets its own telemetry scope: live state, progress and ETA at
// /v1/jobs/{id}, a per-job
// Chrome trace at /v1/jobs/{id}/trace, live telemetry streamed as
// Server-Sent Events at /v1/jobs/{id}/events and /v1/events, and
// structured logs correlated by job id. Metrics are always on, served
// at /metrics in Prometheus text form; the runtime and server gauges
// there (goroutines, heap, GC, worker occupancy, queue depth) are read
// at each scrape. docs/API.md is the endpoint reference.
//
// With -store file, job records, cached results and Idempotency-Key
// bindings are persisted under -data-dir in a CRC-checked write-ahead
// log plus snapshot files; after a crash the next start replays the
// log and rebuilds interrupted jobs from their requests under the same
// job ids. Graceful shutdown records terminal states, so only an
// unclean death triggers resume. The
// YIELDD_CHAOS environment variable (e.g.
// "err=0.05,lat=2ms,partial=0.01,seed=7") injects storage faults for
// recovery testing.
//
// Usage:
//
//	yieldd [-addr :8080] [-workers N] [-queue N] [-cache N] [-max-chips N]
//	       [-max-sweep-configs N] [-timeout D] [-max-timeout D] [-drain D]
//	       [-job-history N] [-stream-interval D] [-event-buffer N]
//	       [-log-format text|json] [-store none|file] [-data-dir DIR]
//
// On SIGINT/SIGTERM the server stops admitting builds, ends live event
// streams, drains in-flight jobs for up to the -drain budget, then
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"yieldcache/internal/obs"
	"yieldcache/internal/server"
	"yieldcache/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent study builds (each build parallelises across all CPUs)")
	queue := flag.Int("queue", 8, "builds allowed to queue beyond the running ones before shedding with 429")
	cache := flag.Int("cache", 128, "result-cache capacity in studies (negative disables caching)")
	maxChips := flag.Int("max-chips", 20000, "largest accepted Monte Carlo population")
	maxSweepConfigs := flag.Int("max-sweep-configs", 256, "largest config grid a single /v1/sweep request may resolve to")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request build timeout (when the request has no timeout_ms)")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "upper clamp on request timeouts")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for draining in-flight builds")
	jobHistory := flag.Int("job-history", 64, "finished jobs kept inspectable via /v1/jobs (evicted oldest-first)")
	streamInterval := flag.Duration("stream-interval", 250*time.Millisecond, "minimum interval between a job's job_progress events, and between its mid-build job_estimate events")
	eventBuffer := flag.Int("event-buffer", 64, "per-SSE-connection event buffer; clients lagging a full buffer are disconnected")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	storeKind := flag.String("store", "none", "durable job/result store: none or file (WAL under -data-dir)")
	dataDir := flag.String("data-dir", "yieldd-data", "directory for the file store's write-ahead log and snapshots")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "yieldd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	// A server wants its metrics live at /metrics, not written on exit:
	// enable the registry unconditionally instead of going through the
	// batch CLIs' obs.Flags bundle.
	obs.Enable()

	var st store.Store
	switch *storeKind {
	case "none":
	case "file":
		fs, err := store.OpenFile(*dataDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yieldd: opening store in %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		st = fs
		logger.Info("file store open", "data_dir", *dataDir)
	default:
		fmt.Fprintf(os.Stderr, "yieldd: unknown -store %q (want none or file)\n", *storeKind)
		os.Exit(2)
	}
	if st != nil {
		chaos, err := store.ChaosFromEnv()
		if err != nil {
			fmt.Fprintf(os.Stderr, "yieldd: YIELDD_CHAOS: %v\n", err)
			os.Exit(2)
		}
		if chaos.Enabled() {
			logger.Warn("storage fault injection armed", "config", os.Getenv("YIELDD_CHAOS"))
			st = store.WithChaos(st, chaos)
		}
	}

	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		MaxChips:        *maxChips,
		MaxSweepConfigs: *maxSweepConfigs,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		JobHistory:      *jobHistory,
		StreamInterval:  *streamInterval,
		EventBuffer:     *eventBuffer,
		Logger:          logger,

		Store: st,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("yieldd listening",
		"addr", *addr, "workers", *workers, "queue", *queue, "cache", *cache,
		"job_history", *jobHistory)

	select {
	case err := <-errCh:
		logger.Error("yieldd server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("draining in-flight builds", "budget", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Warn("drain incomplete, builds cancelled", "error", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Warn("store close", "error", err)
		}
	}
	logger.Info("yieldd stopped")
}
