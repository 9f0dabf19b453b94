package telemetry

import (
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// EventKind classifies trace events.
type EventKind uint8

// Event kinds emitted by the model layers.
const (
	// EvMigration is one background segment copy (src → dst DSN) with its
	// scheduled duration.
	EvMigration EventKind = iota
	// EvSMCMiss is a full segment-mapping-cache miss (DRAM table walk).
	EvSMCMiss
	// EvWake is a foreground access forcing a rank out of self-refresh.
	EvWake
	// EvScrub is one patrol-scrubber run (segments scrubbed in Src).
	EvScrub
	// EvWriteConflict is a foreground write landing on an in-flight
	// migration (§4.2 protocol activation).
	EvWriteConflict
	// EvRetire is a rank permanently taken offline.
	EvRetire
	// EvFault is a device fault report (ECC error, wake fault, rank failure);
	// Reason carries the fault kind, Src the error count.
	EvFault
	// EvStorm is the health monitor's leaky bucket tripping on a rank.
	EvStorm
	// EvRetireDeferred is an auto-retirement postponed for lack of spare
	// capacity; Dur is the backoff until the next attempt.
	EvRetireDeferred
	// EvAttr is one closed attribution span: Src is the charged VM, Reason
	// the cause tag, Dur the latency and Energy the energy charge.
	EvAttr
	// EvLedger is one cost-ledger cell total, dumped when the trace
	// finishes: Src is the VM, Reason the cause, Dur the accumulated
	// latency and Energy the accumulated energy.
	EvLedger
)

// numEventKinds is the number of defined event kinds.
const numEventKinds = int(EvLedger) + 1

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvMigration:
		return "migration"
	case EvSMCMiss:
		return "smc_miss"
	case EvWake:
		return "wake"
	case EvScrub:
		return "scrub"
	case EvWriteConflict:
		return "write_conflict"
	case EvRetire:
		return "retire"
	case EvFault:
		return "fault"
	case EvStorm:
		return "ecc_storm"
	case EvRetireDeferred:
		return "retire_deferred"
	case EvAttr:
		return "attr"
	case EvLedger:
		return "ledger"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one structured trace record. Fields that do not apply to a kind
// are -1 (Rank, Channel) or zero.
type Event struct {
	Kind    EventKind
	At      sim.Time
	Dur     sim.Time // span events (migration); 0 for instants
	Rank    int      // global rank, -1 when not rank-scoped
	Channel int      // -1 when not channel-scoped
	Src     int64    // migration source DSN / scrubbed-segment count / charged VM
	Dst     int64    // migration destination DSN
	Reason  string   // migration reason ("drain", "hotness-swap", ...) / cause tag
	Energy  float64  // attribution energy charge (attr/ledger records only)
}

// PowerSpan is one closed interval a rank spent in a single power state.
// Spans for a rank partition [start, horizon] exactly: the tracer closes the
// open span on every transition and Finish closes the rest, so per-rank span
// durations always sum to the traced run duration.
type PowerSpan struct {
	Rank  int // global rank
	State dram.PowerState
	Start sim.Time
	End   sim.Time
}

// Duration reports the span length.
func (s PowerSpan) Duration() sim.Time { return s.End - s.Start }

// TracerConfig sizes a Tracer for a device.
type TracerConfig struct {
	// Ranks is the number of global ranks (one power timeline each).
	Ranks int
	// Channels lets sinks render a global rank id as "chX/rkY" (global rank
	// = rank*Channels + channel, matching the device codec).
	Channels int
	// Start is the trace origin (usually 0).
	Start sim.Time
}

// Tracer records structured events and per-rank power-state timelines.
// Events go only to the attached TraceStream; the tracer keeps no copy of
// them. Closed power spans are also kept (transitions are rare), because
// Residency and the ledger's background-energy fold read them.
// All emit methods are nil-receiver-safe no-ops, so model code can hold a
// nil *Tracer and call it unconditionally without paying for tracing.
type Tracer struct {
	cfg TracerConfig

	rankNames []string // RankName per global rank, rendered once

	state []dram.PowerState // current power state per rank
	since []sim.Time        // when the rank entered it
	spans []PowerSpan

	// stream, when attached, receives every event and closed power span as
	// it is recorded.
	stream *TraceStream

	finished bool
	end      sim.Time
}

// NewTracer builds a tracer with every rank in standby at cfg.Start.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Ranks <= 0 {
		panic(fmt.Sprintf("telemetry: tracer needs at least one rank, got %d", cfg.Ranks))
	}
	t := &Tracer{
		cfg:       cfg,
		rankNames: make([]string, cfg.Ranks),
		state:     make([]dram.PowerState, cfg.Ranks), // all dram.Standby, the zero state
		since:     make([]sim.Time, cfg.Ranks),
	}
	for i := range t.state {
		t.rankNames[i] = formatRankName(i, cfg.Channels)
		t.since[i] = cfg.Start
	}
	return t
}

// Config returns the tracer's configuration.
func (t *Tracer) Config() TracerConfig { return t.cfg }

// StateName names a power state the way trace records spell it.
func (t *Tracer) StateName(s dram.PowerState) string {
	if s >= dram.Standby && s <= dram.MPSM {
		return s.String()
	}
	return fmt.Sprintf("state%d", int(s))
}

// RankName renders a global rank as "chX/rkY" (or "rkN" without channels).
func (t *Tracer) RankName(rank int) string {
	if rank >= 0 && rank < len(t.rankNames) {
		return t.rankNames[rank]
	}
	return formatRankName(rank, t.cfg.Channels)
}

func formatRankName(rank, channels int) string {
	if channels > 0 {
		return fmt.Sprintf("ch%d/rk%d", rank%channels, rank/channels)
	}
	return fmt.Sprintf("rk%d", rank)
}

// PowerTransition records rank entering power state to at time at. Same-state
// transitions are ignored.
func (t *Tracer) PowerTransition(rank int, to dram.PowerState, at sim.Time) {
	if t == nil {
		return
	}
	if rank < 0 || rank >= len(t.state) {
		panic(fmt.Sprintf("telemetry: power transition on rank %d of %d", rank, len(t.state)))
	}
	if t.state[rank] == to {
		return
	}
	if at < t.since[rank] {
		// Out-of-order emission would corrupt the partition invariant.
		panic(fmt.Sprintf("telemetry: transition at %v before span start %v", at, t.since[rank]))
	}
	closed := PowerSpan{Rank: rank, State: t.state[rank], Start: t.since[rank], End: at}
	t.spans = append(t.spans, closed)
	t.stream.span(t, closed)
	t.state[rank] = to
	t.since[rank] = at
}

// AttachStream installs a streaming sink that receives every subsequent
// event and closed power span (including the final closures Finish makes).
// Nothing recorded before is replayed, so attach it right after NewTracer,
// before the run. Passing nil detaches. Nil-receiver-safe like the emit
// methods.
func (t *Tracer) AttachStream(ts *TraceStream) {
	if t == nil {
		return
	}
	t.stream = ts
}

func (t *Tracer) emit(ev *Event) { t.stream.event(ev) }

// Migration records one background segment copy on a channel over
// [start, end), tagged with the engine that requested it.
func (t *Tracer) Migration(ch int, src, dst int64, reason string, start, end sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvMigration, At: start, Dur: end - start, Rank: -1, Channel: ch,
		Src: src, Dst: dst, Reason: reason})
}

// SMCMiss records a full segment-mapping-cache miss at time at.
func (t *Tracer) SMCMiss(at sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvSMCMiss, At: at, Rank: -1, Channel: -1})
}

// Wake records an access forcing a rank out of self-refresh, with the exit
// penalty charged to the access.
func (t *Tracer) Wake(rank int, at, penalty sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvWake, At: at, Dur: penalty, Rank: rank, Channel: -1})
}

// Scrub records one patrol-scrubber run that visited segments segments.
func (t *Tracer) Scrub(at sim.Time, segments int64) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvScrub, At: at, Rank: -1, Channel: -1, Src: segments})
}

// WriteConflict records a foreground write hitting an in-flight migration.
func (t *Tracer) WriteConflict(ch int, at sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvWriteConflict, At: at, Rank: -1, Channel: ch})
}

// Retire records a rank being permanently taken offline, tagged with the
// retirement cause ("manual", "ecc-storm", "rank-failure", ...).
func (t *Tracer) Retire(rank int, cause string, at sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvRetire, At: at, Rank: rank, Channel: -1, Reason: cause})
}

// Fault records a device fault report. kind names the fault class and count
// is the number of errors folded into the report.
func (t *Tracer) Fault(rank int, kind string, count int64, at sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvFault, At: at, Rank: rank, Channel: -1, Src: count, Reason: kind})
}

// Storm records the health monitor's storm detector tripping on a rank.
func (t *Tracer) Storm(rank int, level int64, at sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvStorm, At: at, Rank: rank, Channel: -1, Src: level})
}

// RetireDeferred records an auto-retirement postponed because draining the
// rank would not fit in the surviving capacity; backoff is the retry delay.
func (t *Tracer) RetireDeferred(rank int, cause string, backoff, at sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvRetireDeferred, At: at, Dur: backoff, Rank: rank, Channel: -1, Reason: cause})
}

// AttrSpan records one closed attribution span: the cost ledger charged
// (end - start) nanoseconds of latency and energy units to (vm, rank,
// cause). rank is -1 when the charge is not rank-scoped.
func (t *Tracer) AttrSpan(vm int64, rank int, cause string, start, end sim.Time, energy float64) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvAttr, At: start, Dur: end - start, Rank: rank, Channel: -1,
		Src: vm, Reason: cause, Energy: energy})
}

// LedgerCell records one cost-ledger cell total (usually at trace finish,
// via Ledger.EmitTo): latNs nanoseconds and energy units accumulated on
// (vm, rank, cause) over the run.
func (t *Tracer) LedgerCell(vm int64, rank int, cause string, latNs int64, energy float64, at sim.Time) {
	if t == nil {
		return
	}
	t.emit(&Event{Kind: EvLedger, At: at, Dur: sim.Time(latNs), Rank: rank, Channel: -1,
		Src: vm, Reason: cause, Energy: energy})
}

// Finish closes every open power span at horizon. Call it once, after the
// run, before exporting spans; later calls are no-ops.
func (t *Tracer) Finish(horizon sim.Time) {
	if t == nil || t.finished {
		return
	}
	for rank := range t.state {
		end := horizon
		if end < t.since[rank] {
			end = t.since[rank]
		}
		closed := PowerSpan{Rank: rank, State: t.state[rank], Start: t.since[rank], End: end}
		t.spans = append(t.spans, closed)
		t.stream.span(t, closed)
	}
	t.finished = true
	t.end = horizon
}

// End reports the horizon passed to Finish.
func (t *Tracer) End() sim.Time { return t.end }

// PowerSpans returns the closed power spans recorded so far (all spans,
// including the final open-span closures, once Finish has run).
func (t *Tracer) PowerSpans() []PowerSpan {
	if t == nil {
		return nil
	}
	return append([]PowerSpan(nil), t.spans...)
}
