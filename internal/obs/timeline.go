package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Stage identifies one kind of wall-clock span in a job's life. The first
// five stages (through StageArtifactCommit) are the *core* lifecycle chain:
// they are disjoint and, for a chaos-free job, their durations sum to the
// job's end-to-end wall clock. The remaining stages are *detail* spans that
// nest inside core stages (a journal fsync happens during submit or
// artifact-commit; store writes happen during artifact-commit) and are
// excluded from any sum-to-wall-clock accounting.
type Stage uint8

const (
	StageSubmit Stage = iota
	StageJournalAppend
	StageQueued
	StageRunning
	StageArtifactCommit
	StageJournalFsync
	StageStoreWrite
	StageChaosInject
	StageRecoveryReplay
	NumStages
)

var stageNames = [NumStages]string{
	"submit",
	"journal-append",
	"queued",
	"running",
	"artifact-commit",
	"journal-fsync",
	"store-write",
	"chaos-inject",
	"recovery-replay",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Core reports whether s belongs to the disjoint lifecycle chain whose
// durations sum to the job's wall clock.
func (s Stage) Core() bool { return s <= StageArtifactCommit }

// CoreStages lists the lifecycle chain in order, for callers (CI, dtlstat)
// that want to assert presence of every core stage.
func CoreStages() []Stage {
	return []Stage{StageSubmit, StageJournalAppend, StageQueued, StageRunning, StageArtifactCommit}
}

// ParseStage maps a stage name back to its enum value.
func ParseStage(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// maxSpans bounds the per-job span list. Totals and counts keep
// accumulating past the cap; only individual span records are dropped (and
// counted in DroppedSpans). 256 covers every stage a normal job produces
// with two orders of magnitude of headroom.
const maxSpans = 256

// span is one completed interval, stored as microsecond offsets from the
// timeline base so the hot path never allocates.
type span struct {
	stage   Stage
	startUs int64
	durUs   int64
}

// Timeline accumulates monotonic-clock spans for one job. Record is the hot
// path: it takes a mutex, updates two fixed arrays and appends into a
// preallocated slice — zero heap allocations, pinned by
// TestTimelineRecordDoesNotAllocate and BenchmarkTimelineRecord.
//
// All times must come from time.Now() on the same process so the monotonic
// reading is comparable; offsets are computed with time.Time.Sub which uses
// the monotonic clock when both operands carry it.
type Timeline struct {
	mu      sync.Mutex
	base    time.Time // job submit time; span offsets are relative to it
	closed  time.Time // terminal time; zero while the job is live
	totals  [NumStages]time.Duration
	counts  [NumStages]int64
	spans   []span
	dropped int64
}

// NewTimeline starts a timeline anchored at base (normally the instant the
// job was accepted).
func NewTimeline(base time.Time) *Timeline {
	return &Timeline{base: base, spans: make([]span, 0, maxSpans)}
}

// Record accounts one completed span. Safe for concurrent use; zero-alloc.
func (t *Timeline) Record(s Stage, start, end time.Time) {
	if t == nil || s >= NumStages {
		return
	}
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.totals[s] += d
	t.counts[s]++
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{stage: s, startUs: start.Sub(t.base).Microseconds(), durUs: d.Microseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Close marks the timeline terminal. Snapshots taken after Close report the
// wall clock frozen at now instead of continuing to grow.
func (t *Timeline) Close(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.closed.IsZero() {
		t.closed = now
	}
	t.mu.Unlock()
}

// StageStat is the aggregate view of one stage inside a TimelineSnapshot.
type StageStat struct {
	Stage   string  `json:"stage"`
	Core    bool    `json:"core,omitempty"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// SpanInfo is one recorded span: start offset from the job's submit instant
// and duration, both in microseconds.
type SpanInfo struct {
	Stage   string `json:"stage"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// TimelineSnapshot is the JSON view of a Timeline: embedded in job status,
// written as the timeline.json artifact, and served by the /timeline
// endpoint. WallSeconds is base→Close (or base→now while live);
// CoreSeconds is the sum of core-stage totals and should match WallSeconds
// within measurement slack for a chaos-free job.
type TimelineSnapshot struct {
	JobID        string      `json:"job_id,omitempty"`
	Start        time.Time   `json:"start"`
	WallSeconds  float64     `json:"wall_seconds"`
	CoreSeconds  float64     `json:"core_seconds"`
	Stages       []StageStat `json:"stages"`
	Spans        []SpanInfo  `json:"spans,omitempty"`
	DroppedSpans int64       `json:"dropped_spans,omitempty"`
}

// Snapshot renders the timeline's current state. Stages with zero
// observations are omitted.
func (t *Timeline) Snapshot(now time.Time) TimelineSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := now
	if !t.closed.IsZero() {
		end = t.closed
	}
	snap := TimelineSnapshot{
		Start:        t.base,
		WallSeconds:  end.Sub(t.base).Seconds(),
		DroppedSpans: t.dropped,
	}
	for s := Stage(0); s < NumStages; s++ {
		if t.counts[s] == 0 {
			continue
		}
		snap.Stages = append(snap.Stages, StageStat{
			Stage:   s.String(),
			Core:    s.Core(),
			Count:   t.counts[s],
			Seconds: t.totals[s].Seconds(),
		})
		if s.Core() {
			snap.CoreSeconds += t.totals[s].Seconds()
		}
	}
	snap.Spans = make([]SpanInfo, len(t.spans))
	for i, sp := range t.spans {
		snap.Spans[i] = SpanInfo{Stage: sp.stage.String(), StartUs: sp.startUs, DurUs: sp.durUs}
	}
	return snap
}

// StageStat finds the aggregate for a stage by name.
func (s TimelineSnapshot) StageStat(name string) (StageStat, bool) {
	for _, st := range s.Stages {
		if st.Stage == name {
			return st, true
		}
	}
	return StageStat{}, false
}

// StageSpanSeconds returns the individual span durations (seconds) recorded
// for a stage, for percentile checks (dtlstat timeline -check).
func (s TimelineSnapshot) StageSpanSeconds(name string) []float64 {
	var out []float64
	for _, sp := range s.Spans {
		if sp.Stage == name {
			out = append(out, float64(sp.DurUs)/1e6)
		}
	}
	return out
}

// Chrome-trace thread ids: core lifecycle spans on one row, detail I/O
// spans on another, so the waterfall reads top-to-bottom like the job ran.
const (
	chromePid   = 1
	tidLifecyle = 0
	tidDetail   = 1
)

// chromeEvent mirrors the trace_event schema of the Chrome traces
// telemetry.ConvertJSONL writes (ts/dur in microseconds) so wall-clock and
// virtual-time traces open in the same viewer.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the snapshot as Chrome trace_event JSON: one complete
// ("X") event per span, lifecycle stages on tid 0 and detail stages on
// tid 1.
func (s TimelineSnapshot) WriteChrome(w io.Writer) error {
	name := s.JobID
	if name == "" {
		name = "job"
	}
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
			Args: map[string]any{"name": "dtlserved " + name}},
		{Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tidLifecyle,
			Args: map[string]any{"name": "lifecycle"}},
		{Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tidDetail,
			Args: map[string]any{"name": "io detail"}},
	}
	for _, sp := range s.Spans {
		st, ok := ParseStage(sp.Stage)
		tid := tidDetail
		cat := "detail"
		if ok && st.Core() {
			tid = tidLifecyle
			cat = "lifecycle"
		}
		evs = append(evs, chromeEvent{
			Name: sp.Stage, Cat: cat, Ph: "X",
			Ts: float64(sp.StartUs), Dur: float64(sp.DurUs),
			Pid: chromePid, Tid: tid,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
