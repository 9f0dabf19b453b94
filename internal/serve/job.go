package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"
	"unicode/utf8"

	"dtl/internal/experiments"
	"dtl/internal/fault"
	"dtl/internal/obs"
	"dtl/internal/rack"
	"dtl/internal/telemetry"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the POST /v1/jobs request body: one experiment run at a given
// seed and scale, with the same policy / fault / trace-format knobs dtlsim
// exposes. Identical specs produce byte-identical artifacts.
type JobSpec struct {
	// Experiment is a runner id from experiments.All ("fig12", "faults", ...).
	Experiment string `json:"experiment"`
	// Seed drives every random choice; 0 means the default seed 1.
	Seed int64 `json:"seed,omitempty"`
	// Quick selects the reduced-scale run.
	Quick bool `json:"quick,omitempty"`
	// Policy holds power-policy overrides in the experiments.ParsePolicy
	// grammar, e.g. "reserve=3;threshold=80ms".
	Policy string `json:"policy,omitempty"`
	// Faults holds a fault-injection spec in the internal/fault grammar.
	// Rack experiments accept expander-scoped targets ("kill:x2/ch0/rk0").
	Faults string `json:"faults,omitempty"`
	// Rack is the expander count for the rack experiment; 0 keeps the
	// experiment's default (4). Ignored by single-expander experiments.
	Rack int `json:"rack,omitempty"`
	// Fabric is the rack fabric cost model and placement policy in the
	// rack.ParseFabric grammar, e.g. "hop=150ns;gbs=32;policy=pack".
	Fabric string `json:"fabric,omitempty"`
	// TraceFormat selects the trace artifact encoding: jsonl (default),
	// csv, or chrome.
	TraceFormat string `json:"trace_format,omitempty"`
	// Parallel bounds the sweep fan-out inside the experiment; <= 1 serial.
	Parallel int `json:"parallel,omitempty"`
	// TimeoutSec overrides the server's per-job timeout; 0 keeps the
	// server default.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Force bypasses the idempotent result cache and in-flight coalescing:
	// the job executes even when an identical spec already ran or is running.
	// Determinism gates use it to re-run identical specs on purpose. Force
	// does not change the spec digest.
	Force bool `json:"force,omitempty"`
}

// normalized fills defaults and validates every field, so a bad spec is
// rejected at admission (400) instead of failing inside a worker. Unknown
// experiment ids and unknown policy keys are errors, never ignored.
func (s JobSpec) normalized() (JobSpec, error) {
	if s.Experiment == "" {
		return s, fmt.Errorf("experiment is required (GET /v1/experiments lists ids)")
	}
	if _, ok := experiments.ByID(s.Experiment); !ok {
		return s, fmt.Errorf("unknown experiment %q (GET /v1/experiments lists ids)", s.Experiment)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TraceFormat == "" {
		s.TraceFormat = "jsonl"
	}
	if _, err := telemetry.ParseTraceFormat(s.TraceFormat); err != nil {
		return s, err
	}
	// A JSON body cannot carry invalid UTF-8, but a spec passed to Submit
	// can, and its journal record would decode to a different spec.
	for _, f := range [...]struct{ name, v string }{{"policy", s.Policy}, {"faults", s.Faults}, {"fabric", s.Fabric}} {
		if !utf8.ValidString(f.v) {
			return s, fmt.Errorf("%s is not valid UTF-8", f.name)
		}
	}
	if _, err := experiments.ParsePolicy(s.Policy); err != nil {
		return s, err
	}
	if s.Faults != "" {
		if _, err := fault.Parse(s.Faults); err != nil {
			return s, err
		}
	}
	if s.Rack < 0 || s.Rack > rack.MaxExpanders {
		return s, fmt.Errorf("rack must be in [0, %d] (0 keeps the experiment default)", rack.MaxExpanders)
	}
	if _, err := rack.ParseFabric(s.Fabric); err != nil {
		return s, err
	}
	if s.Parallel < 0 {
		return s, fmt.Errorf("parallel must be >= 0")
	}
	if s.TimeoutSec < 0 {
		return s, fmt.Errorf("timeout_sec must be >= 0")
	}
	return s, nil
}

// digest is the job's canonical identity: the hex SHA-256 of the normalized
// spec fields that influence artifact bytes. TimeoutSec, Parallel and Force
// are excluded — they shape scheduling, not output — so two submissions
// that would produce identical artifacts always share a digest. Only call
// it on normalized specs, so filled defaults (seed 1, jsonl) don't split
// the key. The rack
// fields carry omitempty so specs that predate them keep their digests:
// a zero-rack spec marshals the exact bytes it did before the fields existed.
func (s JobSpec) digest() string {
	c := struct {
		Experiment  string `json:"experiment"`
		Seed        int64  `json:"seed"`
		Quick       bool   `json:"quick"`
		Policy      string `json:"policy"`
		Faults      string `json:"faults"`
		TraceFormat string `json:"trace_format"`
		Rack        int    `json:"rack,omitempty"`
		Fabric      string `json:"fabric,omitempty"`
	}{s.Experiment, s.Seed, s.Quick, s.Policy, s.Faults, s.TraceFormat, s.Rack, s.Fabric}
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // fixed field set of scalar types; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// traceArtifactName is the trace artifact's name for the spec's format.
func (s JobSpec) traceArtifactName() string {
	switch s.TraceFormat {
	case "csv":
		return "trace.csv"
	case "chrome":
		return "trace.json"
	default:
		return "trace.jsonl"
	}
}

// ArtifactInfo describes one stored artifact of a finished job.
type ArtifactInfo struct {
	Name   string `json:"name"`
	Digest string `json:"digest"` // sha256 hex; the artifact-store address
	Size   int64  `json:"size"`
}

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID          string              `json:"id"`
	State       State               `json:"state"`
	Spec        JobSpec             `json:"spec"`
	SpecDigest  string              `json:"spec_digest,omitempty"`
	Error       string              `json:"error,omitempty"`
	SubmittedAt time.Time           `json:"submitted_at"`
	StartedAt   *time.Time          `json:"started_at,omitempty"`
	FinishedAt  *time.Time          `json:"finished_at,omitempty"`
	Snapshots   int64               `json:"snapshots"`
	Artifacts   []ArtifactInfo      `json:"artifacts,omitempty"`
	Result      *experiments.Result `json:"result,omitempty"`
	// Timeline is the job's wall-clock span accounting: where the real
	// seconds went (queue wait, engine, journal fsync, artifact commit) —
	// distinct from the virtual-time attribution in ledger.json.
	Timeline *obs.TimelineSnapshot `json:"timeline,omitempty"`
}

// job is the server-side state of one submitted run. The publisher side
// (worker goroutine) and any number of stream subscribers synchronize on mu;
// done closes exactly once when the job reaches a terminal state.
type job struct {
	id     string
	spec   JobSpec
	digest string // canonical spec digest; the result-cache key

	// timeline accumulates wall-clock spans; it has its own lock and never
	// takes j.mu, so it is safe to touch under either lock or none.
	timeline *obs.Timeline
	// enqueued is when the job entered the admission queue (set by Submit,
	// or by recovery for re-enqueued jobs); the queued span's start.
	enqueued time.Time

	mu        sync.Mutex
	state     State
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *experiments.Result
	artifacts []ArtifactInfo
	snapshots int64
	last      *experiments.WatchSnapshot
	subs      map[chan experiments.WatchSnapshot]struct{}
	cancel    context.CancelFunc

	done chan struct{}
}

func newJob(id string, spec JobSpec, digest string, now time.Time) *job {
	return &job{
		id:        id,
		spec:      spec,
		digest:    digest,
		timeline:  obs.NewTimeline(now),
		enqueued:  now,
		state:     StateQueued,
		submitted: now,
		subs:      map[chan experiments.WatchSnapshot]struct{}{},
		done:      make(chan struct{}),
	}
}

// start flips the job to running and records the cancel hook for
// POST /v1/jobs/{id}/cancel.
func (j *job) start(cancel context.CancelFunc, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
}

// finish records the terminal state and wakes every waiter, reporting whether
// this call was the one that settled the job (finish is idempotent: the
// worker-pool panic containment may race a finish already performed on the
// normal path, and only the first settles). The final watch snapshot (if any)
// was published before finish, so stream subscribers that observe done can
// still drain it.
func (j *job) finish(state State, errMsg string, res *experiments.Result, arts []ArtifactInfo, now time.Time) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = errMsg
	j.result = res
	j.artifacts = arts
	j.finished = now
	j.cancel = nil
	j.mu.Unlock()
	j.timeline.Close(now)
	close(j.done)
	return true
}

// requestCancel triggers the job's context; a no-op unless running.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel == nil {
		return false
	}
	cancel()
	return true
}

// publish hands one snapshot to every subscriber, coalescing per subscriber
// exactly like the experiments watch channel: a slow reader sees the newest
// snapshot, never a backlog, and publishing never blocks the worker.
func (j *job) publish(snap experiments.WatchSnapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.snapshots++
	j.last = &snap
	for ch := range j.subs {
		experiments.SendWatch(ch, snap)
	}
}

// subscribe registers a stream reader. The channel is seeded with the most
// recent snapshot so late subscribers render immediately. The returned
// cancel must be called exactly once.
func (j *job) subscribe() (chan experiments.WatchSnapshot, func()) {
	ch := make(chan experiments.WatchSnapshot, 1)
	j.mu.Lock()
	if j.last != nil {
		ch <- *j.last
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// status snapshots the wire representation.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		SpecDigest:  j.digest,
		Error:       j.err,
		SubmittedAt: j.submitted,
		Snapshots:   j.snapshots,
		Artifacts:   append([]ArtifactInfo(nil), j.artifacts...),
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	snap := j.timeline.Snapshot(time.Now())
	snap.JobID = j.id
	st.Timeline = &snap
	return st
}

// artifact resolves a stored artifact by name.
func (j *job) artifact(name string) (ArtifactInfo, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, a := range j.artifacts {
		if a.Name == name {
			return a, true
		}
	}
	return ArtifactInfo{}, false
}
