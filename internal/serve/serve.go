// Package serve implements dtlserved: a long-lived HTTP/JSON daemon that
// runs DTL experiment jobs as a service. Jobs are admitted through a bounded
// queue with backpressure (429 + Retry-After when full), executed on a
// worker pool over experiments.RunAll, observed live through the same
// WatchSnapshot stream `dtlsim -watch` renders, and landed in a
// content-addressed artifact store. A server-side diff endpoint runs
// telemetry.DiffSummaries with the same tolerance gates as `dtlstat diff`,
// so an A/B policy study is two job submissions and one diff call.
//
// Identical job specs produce byte-identical artifacts (the simulator is
// deterministic by construction), which the store makes directly visible:
// repeated runs share object digests. The same determinism powers the
// idempotent result cache: re-submitting a spec whose digest already maps to
// a done job returns that job without executing anything, and an identical
// spec submitted while its twin is queued or running coalesces onto the
// in-flight execution (JobSpec.Force opts out of both).
//
// The daemon is crash-safe: every accepted job is journaled before Submit
// returns (see recovery.go for the write-ahead schema), artifact commits are
// temp-file+fsync+rename atomic, and a restart on the same store directory
// replays the journal — finished jobs come back verbatim, interrupted jobs
// re-run to byte-identical artifacts. The chaos harness
// (internal/serve/chaos, dtlserved -chaos) injects worker panics, store
// write failures, torn journal writes, and simulated power cuts at the
// crash points that recovery must survive.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dtl/internal/experiments"
	"dtl/internal/obs"
	"dtl/internal/serve/chaos"
	"dtl/internal/serve/journal"
	"dtl/internal/telemetry"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the job worker pool size; 0 starts no workers (jobs queue
	// but never run — useful for tests and drained standbys).
	Workers int
	// QueueDepth bounds the admission queue; at capacity submits get 429.
	// 0 selects the default of 8.
	QueueDepth int
	// StoreDir roots the artifact store; empty selects a temp directory.
	StoreDir string
	// JobTimeout is the default per-job run bound (a job spec may override
	// it); 0 means no default timeout.
	JobTimeout time.Duration
	// Chaos, when non-nil, injects faults into workers, the artifact store,
	// and the journal. Nil (the default) is the provably zero-overhead
	// disabled case.
	Chaos *chaos.Harness
	// OnCrash runs once when a chaos crash point hard-stops the server. The
	// daemon exits the process here; tests leave it nil and start a
	// successor server on the same StoreDir instead.
	OnCrash func()
	// DefaultParallel applies when a job spec leaves Parallel 0 (the
	// dtlserved -parallel flag). It shapes scheduling only — artifacts and
	// spec digests are unaffected — so changing it never invalidates the
	// result cache.
	DefaultParallel int
	// Logger receives the daemon's structured wall-clock records (job
	// lifecycle, rejections, recovery, chaos, drain); every job-scoped
	// record carries job_id, spec_digest, and stage attributes. Nil
	// discards everything.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof on Handler.
	// Off by default: profiling endpoints expose heap contents and must be
	// opted into per deployment (dtlserved -pprof).
	EnablePprof bool
}

// defaultInt returns v, or def when v is 0 (the "unset" JSON value).
func defaultInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// Server owns the queue, the workers, the job registry, the store, and the
// write-ahead journal.
type Server struct {
	cfg      Config
	store    *Store
	journal  *journal.Journal
	chaos    *chaos.Harness
	log      *slog.Logger
	met      serverMetrics
	recovery RecoveryStats

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string          // submission order, for GET /v1/jobs
	byDigest    map[string]string // spec digest -> job id; the result cache
	queue       chan *job
	draining    bool
	crashed     bool
	queueClosed bool
	seq         int

	workers sync.WaitGroup
}

// ErrDraining rejects submissions during graceful shutdown.
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// ErrQueueFull rejects submissions when the admission queue is at capacity.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrCrashed rejects submissions after a chaos crash point hard-stopped the
// server; like a real dead daemon, it does nothing further.
var ErrCrashed = errors.New("serve: crashed (chaos hard stop)")

// ErrJournal rejects a submission whose write-ahead record could not be made
// durable: accepting it would mean losing the job on a crash.
var ErrJournal = errors.New("serve: journal write failed")

// New builds a server: it opens the store (sweeping crash debris), replays
// and compacts the journal, re-enqueues jobs that were queued or running when
// the previous process died, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.StoreDir == "" {
		dir, err := os.MkdirTemp("", "dtlserved-store-")
		if err != nil {
			return nil, err
		}
		cfg.StoreDir = dir
	}
	store, err := OpenStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	store.SetChaos(cfg.Chaos)
	s := &Server{
		cfg:      cfg,
		store:    store,
		chaos:    cfg.Chaos,
		log:      cfg.Logger,
		jobs:     map[string]*job{},
		byDigest: map[string]string{},
	}
	if s.log == nil {
		s.log = obs.Nop()
	}
	s.met.init()
	store.SetObserver(func(d time.Duration, size int64) {
		s.met.storeLat.Observe(d.Seconds())
		s.met.storeSize.Observe(float64(size))
	})
	reenqueue, err := s.recoverJournal()
	if err != nil {
		return nil, err
	}
	jr, _, _, err := journal.Open(s.JournalPath())
	if err != nil {
		return nil, err
	}
	if s.chaos.Enabled() {
		jr.Hook = s.chaos.JournalHook
	}
	jr.OnSync = func(d time.Duration) { s.met.fsyncHist.Observe(d.Seconds()) }
	s.journal = jr
	// Recovered jobs ride ahead of the regular queue capacity so a full
	// crash-time queue re-enqueues without tripping admission control.
	s.queue = make(chan *job, cfg.QueueDepth+len(reenqueue))
	for _, j := range reenqueue {
		s.queue <- j
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the artifact store (read-only use expected).
func (s *Server) Store() *Store { return s.store }

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit validates a job, consults the idempotent result cache, and — on a
// miss — journals and enqueues a fresh run. The error is ErrDraining,
// ErrCrashed, ErrQueueFull, ErrJournal, or a validation error (the HTTP
// layer maps these to 503, 503, 429, 500, and 400).
//
// Cache semantics: a non-Force submission whose spec digest maps to a done
// job returns that job's status immediately (no execution); one that maps to
// a queued or running job coalesces onto the in-flight execution and returns
// its status. Failed and canceled jobs never satisfy the cache — resubmitting
// is the retry path.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	t0 := time.Now()
	spec, err := spec.normalized()
	if err != nil {
		s.log.Warn("job rejected: invalid spec", "err", err)
		return JobStatus{}, err
	}
	digest := spec.digest()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		s.met.drainRejected.Add(1)
		s.log.Warn("job rejected: server crashed", obs.KeyDigest, digest)
		return JobStatus{}, ErrCrashed
	}
	if s.draining {
		s.met.drainRejected.Add(1)
		s.log.Warn("job rejected: draining", obs.KeyDigest, digest)
		return JobStatus{}, ErrDraining
	}
	if !spec.Force {
		if prev, ok := s.jobs[s.byDigest[digest]]; ok {
			st := prev.status()
			switch {
			case st.State == StateDone:
				s.met.cacheHits.Add(1)
				s.log.Info("result cache hit", obs.KeyJob, prev.id, obs.KeyDigest, digest,
					obs.KeyStage, obs.StageSubmit.String())
				return st, nil
			case !st.State.Terminal():
				s.met.coalesced.Add(1)
				s.log.Info("coalesced onto in-flight job", obs.KeyJob, prev.id, obs.KeyDigest, digest,
					obs.KeyStage, obs.StageSubmit.String())
				return st, nil
			}
			// failed or canceled: fall through to a fresh run
		}
	}
	// Capacity check before the durable append: under s.mu, Submit is the
	// only sender, so len(queue) is exact and the send below cannot block.
	// (Journaling first and rolling back on a full queue would leave an
	// orphaned submitted record that recovery would wrongly re-enqueue.)
	if len(s.queue) == cap(s.queue) {
		s.met.queueRejected.Add(1)
		s.log.Warn("job rejected: queue full", obs.KeyDigest, digest)
		return JobStatus{}, ErrQueueFull
	}
	s.seq++
	j := newJob(fmt.Sprintf("j%06d", s.seq), spec, digest, t0)
	// Write-ahead: the job becomes durable before it becomes visible, so a
	// crash after Submit returns can never lose it.
	tAppend := time.Now()
	if err := s.appendWAL(j, walRecord{
		Type: "submitted", ID: j.id, Time: j.submitted, Spec: &j.spec, Digest: digest,
	}); err != nil {
		s.seq-- // the id was never issued
		s.log.Error("journal append failed; rejecting job", obs.KeyJob, j.id, obs.KeyDigest, digest,
			obs.KeyStage, obs.StageJournalAppend.String(), "err", err)
		return JobStatus{}, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	now := time.Now()
	s.stage(j, obs.StageSubmit, t0, tAppend)
	s.stage(j, obs.StageJournalAppend, tAppend, now)
	j.enqueued = now
	s.queue <- j
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byDigest[digest] = j.id
	s.met.submitted.Add(1)
	s.log.Info("job submitted", obs.KeyJob, j.id, obs.KeyDigest, digest,
		obs.KeyStage, obs.StageQueued.String(), "experiment", spec.Experiment, "seed", spec.Seed)
	return j.status(), nil
}

// stage records one wall-clock span on the job's timeline and in the
// per-stage latency histogram.
func (s *Server) stage(j *job, st obs.Stage, start, end time.Time) {
	j.timeline.Record(st, start, end)
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	s.met.stageHist.Observe(st, d.Seconds())
}

// chaosSpan marks a delivered chaos injection on the job's timeline and in
// the log, so "which injections hit this job" is answerable from either.
func (s *Server) chaosSpan(j *job, kind string, at time.Time) {
	s.stage(j, obs.StageChaosInject, at, time.Now())
	s.log.Warn("chaos injection", obs.KeyJob, j.id, obs.KeyDigest, j.digest,
		obs.KeyStage, obs.StageChaosInject.String(), "kind", kind)
}

// Job looks up a job by id.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation of a running job. It reports false when the
// job is unknown or not currently running (queued jobs cannot be revoked
// from the queue; they run and then observe nothing — cancellation targets
// the in-flight case).
func (s *Server) Cancel(id string) bool {
	j, ok := s.jobByID(id)
	if !ok {
		return false
	}
	return j.requestCancel()
}

// Drain stops admission (submits fail with ErrDraining), lets queued and
// in-flight jobs finish, and returns when the workers are idle. If ctx
// expires first, in-flight jobs are canceled and Drain waits for the
// (prompt, since runs poll their context) wind-down before returning
// ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if !s.queueClosed {
			s.queueClosed = true
			close(s.queue)
		}
		s.log.Info("drain started", "queued", len(s.queue))
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	err := func() error {
		select {
		case <-idle:
			return nil
		case <-ctx.Done():
			s.mu.Lock()
			for _, j := range s.jobs {
				j.requestCancel()
			}
			s.mu.Unlock()
			<-idle
			return ctx.Err()
		}
	}()
	// Workers are idle; no appends can race the close. (After a chaos hard
	// stop the journal is already dead and Close is a harmless no-op error.)
	_ = s.journal.Close()
	s.log.Info("drain complete; journal closed", "err", errStr(err))
	return err
}

// errStr renders an error for a log attribute without a nil-vs-empty branch
// at every call site.
func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Crashed reports whether a chaos crash point hard-stopped the server.
func (s *Server) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// hardStop simulates the daemon dying mid-flight without writing another
// byte: the journal is killed (appends fail like a power cut), admission
// stops, and workers wind down leaving their current jobs non-terminal —
// exactly the state a real crash leaves on disk. The process itself survives
// so tests can open a successor server on the same store directory; the real
// daemon passes Config.OnCrash to exit the process here.
func (s *Server) hardStop() {
	s.journal.Kill()
	s.mu.Lock()
	first := !s.crashed
	s.crashed = true
	if !s.queueClosed {
		s.queueClosed = true
		close(s.queue)
	}
	s.mu.Unlock()
	if first {
		s.log.Error("chaos crash point hard-stopped the server; journal killed")
	}
	if first && s.cfg.OnCrash != nil {
		s.cfg.OnCrash()
	}
}

// worker drains the queue until Drain closes it (or a chaos hard stop kills
// the server — a crashed daemon executes nothing more, so remaining queued
// jobs stay non-terminal for the successor's recovery to pick up).
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		if s.Crashed() {
			continue
		}
		s.met.busyWorkers.Add(1)
		s.safeRun(j)
		s.met.busyWorkers.Add(-1)
	}
}

// safeRun is the worker pool's containment boundary: a panic escaping a job
// — injected by the chaos harness, or a bug in the run path outside the
// experiment's own recover — fails that job and frees the worker instead of
// killing the daemon.
func (s *Server) safeRun(j *job) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panicked.Add(1)
			now := time.Now()
			msg := fmt.Sprintf("worker panicked: %v", rec)
			if j.finish(StateFailed, msg, nil, nil, now) {
				s.met.finished(StateFailed, now.Sub(j.submitted))
				s.log.Error("worker panicked; job failed", obs.KeyJob, j.id, obs.KeyDigest, j.digest,
					obs.KeyStage, obs.StageRunning.String(), "panic", fmt.Sprint(rec))
				s.appendWAL(j, walRecord{Type: "finished", ID: j.id, Time: now, State: StateFailed, Error: msg})
			}
		}
	}()
	s.run(j)
}

// run executes one job end to end: working directory, telemetry sinks, the
// experiment itself, artifact ingestion, terminal state.
func (s *Server) run(j *job) {
	r, _ := experiments.ByID(j.spec.Experiment) // validated at admission

	timeout := s.cfg.JobTimeout
	if j.spec.TimeoutSec > 0 {
		timeout = time.Duration(j.spec.TimeoutSec * float64(time.Second))
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	start := time.Now()
	s.stage(j, obs.StageQueued, j.enqueued, start)
	j.start(cancel, start)
	s.log.Info("job started", obs.KeyJob, j.id, obs.KeyDigest, j.digest,
		obs.KeyStage, obs.StageRunning.String(), "experiment", j.spec.Experiment)
	s.appendWAL(j, walRecord{Type: "started", ID: j.id, Time: start})
	if s.chaos.CrashNow(chaos.CrashStart) {
		s.chaosSpan(j, "crash-start", start)
		s.hardStop()
		return
	}
	if s.chaos.WorkerPanic() {
		s.chaosSpan(j, "worker-panic", start)
		// Escapes to safeRun's recover: the worker-pool containment path is
		// the one being exercised, not the experiment-level recover below.
		panic(fmt.Errorf("%w: worker panic", chaos.ErrInjected))
	}

	finishAt := func(state State, errMsg string, res *experiments.Result, arts []ArtifactInfo, now time.Time) {
		if !j.finish(state, errMsg, res, arts, now) {
			return
		}
		s.met.finished(state, now.Sub(j.submitted))
		lvl := slog.LevelInfo
		if state == StateFailed {
			lvl = slog.LevelWarn
		}
		s.log.Log(context.Background(), lvl, "job finished",
			obs.KeyJob, j.id, obs.KeyDigest, j.digest, obs.KeyStage, obs.StageArtifactCommit.String(),
			"state", string(state), "duration", now.Sub(j.submitted), "err", errMsg)
		// The commit record. A crash between the in-memory finish and this
		// append loses only durability, not correctness: recovery re-runs the
		// job and its artifacts dedupe onto the already-committed objects.
		s.appendWAL(j, walRecord{
			Type: "finished", ID: j.id, Time: now,
			State: state, Error: errMsg, Artifacts: arts, Result: res,
		})
	}
	finish := func(state State, errMsg string, res *experiments.Result, arts []ArtifactInfo) {
		finishAt(state, errMsg, res, arts, time.Now())
	}

	work, err := os.MkdirTemp("", "dtlserved-"+j.id+"-")
	if err != nil {
		finish(StateFailed, err.Error(), nil, nil)
		return
	}
	defer os.RemoveAll(work)

	pol, _ := experiments.ParsePolicy(j.spec.Policy)
	// The run streams its trace as JSONL whatever the spec's format;
	// ingestArtifacts summarizes that stream and converts it.
	tracePath := filepath.Join(work, "trace.jsonl")
	metricsPath := filepath.Join(work, "metrics.csv")
	ledgerPath := filepath.Join(work, "ledger.json")

	// The watch stream: the experiment publishes on a cap-1 coalescing
	// channel exactly as under `dtlsim -watch`; the broadcaster fans
	// snapshots out to HTTP subscribers.
	watch := make(chan experiments.WatchSnapshot, 1)
	var bcast sync.WaitGroup
	bcast.Add(1)
	go func() {
		defer bcast.Done()
		for snap := range watch {
			j.publish(snap)
		}
	}()

	var report bytes.Buffer
	opts := experiments.Options{
		Quick:       j.spec.Quick,
		Seed:        j.spec.Seed,
		Out:         &report,
		TracePath:   tracePath,
		TraceFormat: telemetry.FormatJSONL,
		MetricsPath: metricsPath,
		LedgerPath:  ledgerPath,
		FaultSpec:   j.spec.Faults,
		Policy:      pol,
		Rack:        j.spec.Rack,
		Fabric:      j.spec.Fabric,
		Parallel:    defaultInt(j.spec.Parallel, s.cfg.DefaultParallel),
		Watch:       watch,
		Ctx:         ctx,
	}

	var results []experiments.Result
	var runErr error
	func() {
		// Experiments report internal errors by panicking; a served run
		// must turn that into a failed job, not a dead worker.
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panicked.Add(1)
				runErr = fmt.Errorf("experiment panicked: %v", rec)
			}
		}()
		results = experiments.RunAll([]experiments.Runner{r}, opts, 1)
	}()
	close(watch)
	bcast.Wait()
	tRun := time.Now()
	s.stage(j, obs.StageRunning, start, tRun)

	switch {
	case runErr != nil:
		finish(StateFailed, runErr.Error(), nil, nil)
	case results[0].Canceled:
		msg := results[0].Err
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			msg = fmt.Sprintf("job timeout after %v", timeout)
		}
		finish(StateCanceled, msg, nil, nil)
	default:
		res := results[0]
		if s.chaos.CrashNow(chaos.CrashArtifact) {
			s.chaosSpan(j, "crash-artifact", tRun)
			s.hardStop()
			return
		}
		arts, err := s.ingestArtifacts(j, work, report.Bytes(), res)
		if err != nil {
			if errors.Is(err, chaos.ErrInjected) {
				s.chaosSpan(j, "store-write-error", tRun)
			}
			finish(StateFailed, err.Error(), &res, nil)
			return
		}
		if s.chaos.CrashNow(chaos.CrashCommit) {
			// Artifacts are committed but the finished record is not: the
			// dangerous window. Recovery re-runs the job; byte-determinism
			// makes the re-run dedupe onto these exact objects.
			s.chaosSpan(j, "crash-commit", tRun)
			s.hardStop()
			return
		}
		s.met.addLedger(ledgerPath)
		// The artifact-commit span ends exactly at the job's terminal
		// timestamp, so core-stage durations tile the job's wall clock.
		now := time.Now()
		s.stage(j, obs.StageArtifactCommit, tRun, now)
		finishAt(StateDone, "", &res, arts, now)
	}
}
