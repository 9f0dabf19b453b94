// Command dtlserved serves DTL experiments over HTTP: submit jobs against the
// paper's experiment suite, watch them live, fetch content-addressed
// artifacts, and diff two runs server-side with `dtlstat diff` tolerances.
//
//	dtlserved -addr :8080 -workers 2 -store /var/lib/dtlserved
//
//	curl -s localhost:8080/v1/jobs -d '{"experiment":"fig12","quick":true}'
//	curl -s localhost:8080/v1/jobs/j000001/stream
//	curl -s localhost:8080/v1/jobs/j000001/artifacts/trace.jsonl
//
// The daemon logs structured records (log/slog) to stderr; -log-format
// selects text or json and -log-level sets the floor. Every job-scoped
// record carries job_id, spec_digest, and stage attributes, so `-log-format
// json` pipes straight into jq:
//
//	dtlserved -log-format json 2>&1 | jq 'select(.job_id=="j000001")'
//
// On SIGTERM/SIGINT the daemon drains: new submissions are rejected with 503
// while queued and in-flight jobs run to completion (bounded by
// -drain-timeout, after which they are canceled), then the listener closes.
// Every exit path after startup drains, which closes the journal cleanly and
// emits a terminal "stopped" record.
//
// The daemon is crash-safe: accepted jobs are journaled to
// <store>/journal.jsonl before Submit returns, and a restart on the same
// -store directory replays the journal — finished jobs are restored
// verbatim, interrupted jobs re-run to byte-identical artifacts. -chaos
// arms the serving-layer fault harness (worker panics, store write errors,
// torn journal writes, simulated power cuts) for recovery drills:
//
//	dtlserved -store /tmp/s -chaos 'seed=1;crash-commit=0.2;journaltear=0.1'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dtl/internal/cliflag"
	"dtl/internal/obs"
	"dtl/internal/serve"
	"dtl/internal/serve/chaos"
)

func main() { os.Exit(run()) }

// run is the whole daemon; it returns the process exit code so every path
// out — flag errors, bind failures, signal-driven shutdown — funnels through
// one place instead of scattering os.Exit calls that would skip cleanup.
// After serve.New succeeds, the only exits are via shutdown(), which drains
// the server (closing the journal) and logs a terminal record.
func run() int {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", max(1, runtime.NumCPU()/2), "job worker pool size")
	queue := flag.Int("queue", 8, "admission queue depth (full queue => 429)")
	store := flag.String("store", "", "artifact store directory (default: a temp dir)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "default per-job run bound (0 = none; a job spec may override)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful-shutdown bound before in-flight jobs are canceled")
	chaosSpec := flag.String("chaos", "", `fault-injection spec, e.g. "seed=1;panic=0.1;crash-commit=0.05" (default: disabled)`)
	parallel := flag.Int("parallel", 1, "default sweep fan-out for jobs that leave 'parallel' unset")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn or error")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof (off by default: exposes heap contents)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dtlserved: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}

	// The logger comes up before anything that can fail, so even startup
	// errors are structured records in the operator's chosen encoding.
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtlserved: %v\n", err)
		return 2
	}

	explicit := false
	flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "parallel" })
	n, warn, err := cliflag.CheckWorkers("parallel", *parallel, explicit)
	if err != nil {
		logger.Error("invalid flag", "err", err)
		return 2
	}
	if warn != nil {
		logger.Warn("worker count capped", "flag", warn.Flag,
			"requested", warn.Requested, "capped", warn.Capped)
	}
	*parallel = n

	harness, err := chaos.Parse(*chaosSpec)
	if err != nil {
		logger.Error("invalid -chaos spec", "err", err)
		return 2
	}

	srv, err := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		StoreDir:        *store,
		JobTimeout:      *jobTimeout,
		Chaos:           harness,
		DefaultParallel: *parallel,
		Logger:          logger,
		EnablePprof:     *pprof,
		// A chaos crash point behaves like a power cut: the process dies on
		// the spot with the classic SIGKILL-style status, and recovery is
		// the next boot's problem. Deliberately no drain and no journal
		// close — the drill exists to leave a torn journal behind.
		OnCrash: func() {
			logger.Error("chaos crash point hit, dying", "exit_code", 137)
			os.Exit(137)
		},
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		return 1
	}
	logger.Info("dtlserved started",
		"workers", *workers, "queue_depth", *queue, "store", srv.Store().Dir(),
		"log_format", *logFormat, "pprof", *pprof)
	if rec := srv.Recovery(); rec.Restored+rec.Reenqueued > 0 || rec.CorruptRecords > 0 {
		logger.Info("journal recovery",
			"restored", rec.Restored, "reenqueued", rec.Reenqueued, "poisoned", rec.Poisoned,
			"corrupt_records", rec.CorruptRecords, "torn_tail", rec.TornTail)
	}
	if harness.Enabled() {
		logger.Warn("CHAOS ARMED", "spec", *chaosSpec)
	}

	// shutdown drains the server (queued and in-flight jobs finish, bounded
	// by -drain-timeout) and closes the listener. Drain closes the journal,
	// so every return below leaves a clean, compactable log behind.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	shutdown := func(code int) int {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			logger.Warn("drain timeout, in-flight jobs canceled", "err", err)
		}
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("http shutdown", "err", err)
		}
		logger.Info("stopped", "exit_code", code)
		return code
	}

	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-done:
		// The listener died under us (bind failure or runtime error). The
		// journal still deserves a clean close: drain, then report failure.
		logger.Error("http server failed", "err", err)
		return shutdown(1)
	case s := <-sig:
		logger.Info("signal received, draining", "signal", s.String())
	}
	return shutdown(0)
}
