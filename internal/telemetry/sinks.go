package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dtl/internal/sim"
)

// Sink-facing constants for the Chrome trace_event export. Each global rank
// renders as its own "thread" so the per-rank power timeline opens directly
// in Perfetto / chrome://tracing; migration queues and point events get
// dedicated thread ids above the rank range.
const (
	chromePID = 0
	// migrationTidBase + channel is the thread of a channel's migration queue.
	migrationTidBase = 10000
	// pointTid is the thread carrying instant events (SMC misses, scrubs...).
	pointTid = 20000
	// attrTid is the thread carrying attribution spans and ledger cells.
	attrTid = 30000
)

// Trace reading errors callers can test with errors.Is: dtlstat turns them
// into targeted diagnostics instead of a generic parse failure.
var (
	// ErrEmptyTrace marks a trace file with no content at all.
	ErrEmptyTrace = errors.New("empty trace (no records)")
	// ErrTruncatedTrace marks a trace file that ends mid-record — the
	// producer crashed or is still writing.
	ErrTruncatedTrace = errors.New("trace truncated mid-record")
)

// TraceFormat selects the on-disk encoding of an exported trace.
type TraceFormat uint8

const (
	// FormatChrome is Chrome trace_event JSON (one document, microsecond
	// timestamps); it opens directly in Perfetto but cannot stream.
	FormatChrome TraceFormat = iota
	// FormatJSONL is JSON Lines: one flat record per power span or event,
	// integer-nanosecond timestamps, grep/jq-friendly, streamed as the run
	// progresses.
	FormatJSONL
	// FormatCSV is the flat events CSV with a leading record-type column,
	// also streamed as the run progresses.
	FormatCSV
)

// String names the format as the -trace-format flag spells it.
func (f TraceFormat) String() string {
	switch f {
	case FormatChrome:
		return "chrome"
	case FormatJSONL:
		return "jsonl"
	case FormatCSV:
		return "csv"
	default:
		return fmt.Sprintf("TraceFormat(%d)", int(f))
	}
}

// ParseTraceFormat parses a -trace-format flag value.
func ParseTraceFormat(s string) (TraceFormat, error) {
	switch s {
	case "", "chrome":
		return FormatChrome, nil
	case "jsonl":
		return FormatJSONL, nil
	case "csv":
		return FormatCSV, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown trace format %q (want chrome, jsonl or csv)", s)
	}
}

// chromeEvent is one trace_event record. Ts and Dur are microseconds, per
// the trace_event format.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usOf(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteChromeTrace exports the tracer as Chrome trace_event JSON: one
// complete ("X") event per power span on the owning rank's thread, one per
// migration on the channel's migration thread, and instant ("i") events for
// everything else. Finish must have been called so spans cover the full run.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	if t == nil {
		return fmt.Errorf("telemetry: nil tracer")
	}
	if !t.Finished() {
		return fmt.Errorf("telemetry: WriteChromeTrace before Finish")
	}
	var evs []chromeEvent
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePID, Tid: 0,
		Args: map[string]any{"name": "dtlsim"},
	})
	for rank := 0; rank < t.cfg.Ranks; rank++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePID, Tid: rank,
			Args: map[string]any{"name": "power " + t.RankName(rank)},
		})
	}
	for _, s := range t.PowerSpans() {
		evs = append(evs, chromeEvent{
			Name: t.StateName(s.State), Cat: "power", Ph: "X",
			Ts: usOf(s.Start), Dur: usOf(s.Duration()),
			Pid: chromePID, Tid: s.Rank,
		})
	}
	migThreads := map[int]bool{}
	attrThread := false
	for _, ev := range t.Events() {
		switch ev.Kind {
		case EvAttr, EvLedger:
			if !attrThread {
				attrThread = true
				evs = append(evs, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: chromePID, Tid: attrTid,
					Args: map[string]any{"name": "attribution"},
				})
			}
			if ev.Kind == EvAttr {
				evs = append(evs, chromeEvent{
					Name: ev.Reason, Cat: "attr", Ph: "X",
					Ts: usOf(ev.At), Dur: usOf(ev.Dur),
					Pid: chromePID, Tid: attrTid, Args: attrArgs(ev),
				})
			} else {
				evs = append(evs, chromeEvent{
					Name: ev.Reason, Cat: "ledger", Ph: "i",
					Ts: usOf(ev.At), Pid: chromePID, Tid: attrTid, Scope: "t",
					Args: attrArgs(ev),
				})
			}
		case EvMigration:
			if !migThreads[ev.Channel] {
				migThreads[ev.Channel] = true
				evs = append(evs, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: chromePID,
					Tid:  migrationTidBase + ev.Channel,
					Args: map[string]any{"name": fmt.Sprintf("migrations ch%d", ev.Channel)},
				})
			}
			evs = append(evs, chromeEvent{
				Name: "migrate", Cat: "migration", Ph: "X",
				Ts: usOf(ev.At), Dur: usOf(ev.Dur),
				Pid: chromePID, Tid: migrationTidBase + ev.Channel,
				Args: map[string]any{"src": ev.Src, "dst": ev.Dst, "reason": ev.Reason},
			})
		default:
			evs = append(evs, chromeEvent{
				Name: ev.Kind.String(), Cat: "event", Ph: "i",
				Ts: usOf(ev.At), Pid: chromePID, Tid: pointTid, Scope: "t",
				Args: pointArgs(ev),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ns"})
}

// attrArgs carries an attribution record's full cell through the
// trace_event args so SummarizeChromeTrace can rebuild the ledger exactly.
func attrArgs(ev Event) map[string]any {
	args := map[string]any{
		"vm":     ev.Src,
		"cause":  ev.Reason,
		"lat_ns": int64(ev.Dur),
		"energy": ev.Energy,
	}
	if ev.Rank >= 0 {
		args["rank"] = ev.Rank
	}
	return args
}

func pointArgs(ev Event) map[string]any {
	args := map[string]any{}
	if ev.Rank >= 0 {
		args["rank"] = ev.Rank
	}
	if ev.Channel >= 0 {
		args["channel"] = ev.Channel
	}
	if ev.Dur != 0 {
		args["dur_ns"] = int64(ev.Dur)
	}
	if ev.Kind == EvScrub {
		args["segments"] = ev.Src
	}
	if ev.Kind == EvFault || ev.Kind == EvStorm {
		args["count"] = ev.Src
	}
	if ev.Reason != "" {
		args["reason"] = ev.Reason
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// Row renderers of the streaming TraceStream sink. Rows are appended to a
// caller-owned buffer (the StreamSampler discipline), so the per-event cost
// is an append-and-write with no allocation once the buffer has grown.
//
// The record schema is stable and documented in DESIGN.md §8:
//
//	power      type, rank, rank_name, state, start_ns, end_ns
//	migration  type, at_ns, dur_ns, channel, src, dst, reason
//	wake       type, at_ns, dur_ns (exit penalty), rank
//	smc_miss   type, at_ns
//	scrub      type, at_ns, segments
//	fault      type, at_ns, rank, count, reason (fault class)
//	ecc_storm  type, at_ns, rank, count (bucket level)
//	retire     type, at_ns, rank, reason (cause)
//	retire_deferred  type, at_ns, dur_ns (backoff), rank, reason
//	attr       type, at_ns, dur_ns, rank, vm (src), energy, reason (cause)
//	ledger     type, at_ns, dur_ns (lat_ns), rank, vm (src), energy, reason (cause)
//
// Absent fields are omitted in JSONL and empty in CSV. In CSV the attr and
// ledger records carry the energy charge in the dst column as a float.

func appendJSONField(buf []byte, name string, v int64) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendInt(buf, v, 10)
}

func appendJSONStringField(buf []byte, name, v string) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendQuote(buf, v)
}

func appendJSONFloatField(buf []byte, name string, v float64) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendPowerJSONL renders one power span as a JSONL record.
func appendPowerJSONL(buf []byte, rankName, stateName string, s PowerSpan) []byte {
	buf = append(buf, `{"type":"power"`...)
	buf = appendJSONField(buf, "rank", int64(s.Rank))
	buf = appendJSONStringField(buf, "rank_name", rankName)
	buf = appendJSONStringField(buf, "state", stateName)
	buf = appendJSONField(buf, "start_ns", int64(s.Start))
	buf = appendJSONField(buf, "end_ns", int64(s.End))
	return append(buf, '}', '\n')
}

// appendEventJSONL renders one structured event as a JSONL record.
func appendEventJSONL(buf []byte, ev Event) []byte {
	buf = append(buf, `{"type":`...)
	buf = strconv.AppendQuote(buf, ev.Kind.String())
	buf = appendJSONField(buf, "at_ns", int64(ev.At))
	if ev.Dur != 0 {
		buf = appendJSONField(buf, "dur_ns", int64(ev.Dur))
	}
	if ev.Rank >= 0 {
		buf = appendJSONField(buf, "rank", int64(ev.Rank))
	}
	if ev.Channel >= 0 {
		buf = appendJSONField(buf, "channel", int64(ev.Channel))
	}
	switch ev.Kind {
	case EvMigration:
		buf = appendJSONField(buf, "src", ev.Src)
		buf = appendJSONField(buf, "dst", ev.Dst)
	case EvScrub:
		buf = appendJSONField(buf, "segments", ev.Src)
	case EvFault, EvStorm:
		buf = appendJSONField(buf, "count", ev.Src)
	case EvAttr, EvLedger:
		buf = appendJSONField(buf, "vm", ev.Src)
		buf = appendJSONFloatField(buf, "energy", ev.Energy)
	}
	if ev.Reason != "" {
		buf = appendJSONStringField(buf, "reason", ev.Reason)
	}
	return append(buf, '}', '\n')
}

// eventsCSVHeader is the fixed column set of the events-CSV format.
const eventsCSVHeader = "record,at_ns,dur_ns,rank,channel,state_or_reason,src,dst\n"

// appendPowerCSV renders one power span as an events-CSV row. at_ns is the
// span start and dur_ns its length.
func appendPowerCSV(buf []byte, stateName string, s PowerSpan) []byte {
	buf = append(buf, "power,"...)
	buf = strconv.AppendInt(buf, int64(s.Start), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(s.Duration()), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(s.Rank), 10)
	buf = append(buf, ',', ',')
	buf = append(buf, csvSafe(stateName)...)
	return append(buf, ',', ',', '\n')
}

// appendEventCSV renders one structured event as an events-CSV row.
func appendEventCSV(buf []byte, ev Event) []byte {
	buf = append(buf, ev.Kind.String()...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(ev.At), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(ev.Dur), 10)
	buf = append(buf, ',')
	if ev.Rank >= 0 {
		buf = strconv.AppendInt(buf, int64(ev.Rank), 10)
	}
	buf = append(buf, ',')
	if ev.Channel >= 0 {
		buf = strconv.AppendInt(buf, int64(ev.Channel), 10)
	}
	buf = append(buf, ',')
	buf = append(buf, csvSafe(ev.Reason)...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, ev.Src, 10)
	buf = append(buf, ',')
	if ev.Kind == EvAttr || ev.Kind == EvLedger {
		// Attribution records repurpose the dst column for the energy
		// charge; 'g'/-1 formatting round-trips the float64 exactly.
		buf = strconv.AppendFloat(buf, ev.Energy, 'g', -1, 64)
	} else {
		buf = strconv.AppendInt(buf, ev.Dst, 10)
	}
	return append(buf, '\n')
}

// csvSafe neutralizes the field separator inside free-text tags.
func csvSafe(s string) string {
	if !strings.ContainsRune(s, ',') {
		return s
	}
	return strings.ReplaceAll(s, ",", ";")
}

// TraceSummary is the decoded aggregate view of a trace file, produced by
// the Summarize* readers from any trace format and consumed by cmd/dtlstat.
type TraceSummary struct {
	// RankNames maps a global rank id to its name ("ch0/rk3"); absent for
	// formats that do not carry names (events CSV).
	RankNames map[int]string
	// Residency maps rank → state name → total microseconds.
	Residency map[int]map[string]float64
	// MigrationsUs lists every migration span duration in microseconds.
	MigrationsUs []float64
	// MigrationReasons counts migrations by reason tag.
	MigrationReasons map[string]int
	// Points counts instant events by name.
	Points map[string]int
	// Attribution holds the cost-ledger cells dumped into the trace at
	// finish (record kind "ledger"), sorted by (vm, rank, cause). Live
	// attr spans are counted in Points only, so the ledger dump is the
	// single source of attribution totals and nothing double-counts.
	Attribution []LedgerEntry
}

func newTraceSummary() *TraceSummary {
	return &TraceSummary{
		RankNames:        map[int]string{},
		Residency:        map[int]map[string]float64{},
		MigrationReasons: map[string]int{},
		Points:           map[string]int{},
	}
}

func (s *TraceSummary) addResidency(rank int, state string, us float64) {
	m := s.Residency[rank]
	if m == nil {
		m = map[string]float64{}
		s.Residency[rank] = m
	}
	m[state] += us
}

// States lists every state name seen, sorted for stable rendering.
func (s *TraceSummary) States() []string {
	set := map[string]bool{}
	for _, m := range s.Residency {
		for name := range m {
			set[name] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Ranks lists every rank id seen, sorted.
func (s *TraceSummary) Ranks() []int {
	out := make([]int, 0, len(s.Residency))
	for rank := range s.Residency {
		out = append(out, rank)
	}
	sort.Ints(out)
	return out
}

// RankDuration sums all state residencies of one rank (the traced run
// duration, by the span-partition invariant).
func (s *TraceSummary) RankDuration(rank int) float64 {
	var total float64
	for _, us := range s.Residency[rank] {
		total += us
	}
	return total
}

// RankLabel prefers the recorded rank name ("ch0/rk3"); falls back to the
// numeric id.
func (s *TraceSummary) RankLabel(rank int) string {
	if name, ok := s.RankNames[rank]; ok && name != "" {
		return name
	}
	return fmt.Sprintf("rk%d", rank)
}

// SummarizeChromeTrace parses a Chrome trace_event JSON stream produced by
// WriteChromeTrace back into per-rank power residency and migration-latency
// samples.
func SummarizeChromeTrace(r io.Reader) (*TraceSummary, error) {
	var tr chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF ||
			strings.Contains(err.Error(), "unexpected end of JSON input") {
			return nil, fmt.Errorf("telemetry: chrome trace byte offset %d: %w", dec.InputOffset(), ErrTruncatedTrace)
		}
		return nil, fmt.Errorf("telemetry: parsing trace: %w", err)
	}
	s := newTraceSummary()
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid < migrationTidBase:
			if name, ok := ev.Args["name"].(string); ok {
				s.RankNames[ev.Tid] = strings.TrimPrefix(name, "power ")
			}
		case ev.Ph == "X" && ev.Cat == "power":
			s.addResidency(ev.Tid, ev.Name, ev.Dur)
		case ev.Ph == "X" && ev.Cat == "migration":
			s.MigrationsUs = append(s.MigrationsUs, ev.Dur)
			if reason, ok := ev.Args["reason"].(string); ok {
				s.MigrationReasons[reason]++
			}
		case ev.Ph == "X" && ev.Cat == "attr":
			s.Points["attr"]++
		case ev.Ph == "i" && ev.Cat == "ledger":
			entry := LedgerEntry{Rank: -1, Cause: ev.Name}
			if v, ok := ev.Args["vm"].(float64); ok {
				entry.VM = int64(v)
			}
			if v, ok := ev.Args["rank"].(float64); ok {
				entry.Rank = int(v)
			}
			if v, ok := ev.Args["lat_ns"].(float64); ok {
				entry.LatNs = int64(v)
			}
			if v, ok := ev.Args["energy"].(float64); ok {
				entry.Energy = v
			}
			s.Attribution = append(s.Attribution, entry)
		case ev.Ph == "i":
			s.Points[ev.Name]++
		}
	}
	sortEntries(s.Attribution)
	return s, nil
}

// jsonlRecord is the decoded form of one JSONL trace line (the schema the
// appenders above produce). Pointer fields distinguish absent from zero.
type jsonlRecord struct {
	Type     string  `json:"type"`
	Rank     *int    `json:"rank"`
	RankName string  `json:"rank_name"`
	State    string  `json:"state"`
	StartNs  int64   `json:"start_ns"`
	EndNs    int64   `json:"end_ns"`
	AtNs     int64   `json:"at_ns"`
	DurNs    int64   `json:"dur_ns"`
	Channel  *int    `json:"channel"`
	Reason   string  `json:"reason"`
	Vm       *int64  `json:"vm"`
	Energy   float64 `json:"energy"`
}

// SummarizeJSONL parses a JSONL trace (a TraceStream's output) into the
// same summary model SummarizeChromeTrace produces, so downstream residency
// math is format-independent.
func SummarizeJSONL(r io.Reader) (*TraceSummary, error) {
	s := newTraceSummary()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	offset := int64(0)
	for sc.Scan() {
		line++
		lineStart := offset
		offset += int64(len(sc.Bytes())) + 1
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// A malformed final line is a trace cut off mid-record (a
			// killed run or partial copy), not a format error.
			if !sc.Scan() && sc.Err() == nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d (byte offset %d): %w", line, lineStart, ErrTruncatedTrace)
			}
			return nil, fmt.Errorf("telemetry: jsonl line %d: %w", line, err)
		}
		switch rec.Type {
		case "":
			return nil, fmt.Errorf("telemetry: jsonl line %d: record has no type", line)
		case "power":
			if rec.Rank == nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: power record has no rank", line)
			}
			s.addResidency(*rec.Rank, rec.State, usOf(sim.Time(rec.EndNs-rec.StartNs)))
			if rec.RankName != "" {
				s.RankNames[*rec.Rank] = rec.RankName
			}
		case "migration":
			s.MigrationsUs = append(s.MigrationsUs, usOf(sim.Time(rec.DurNs)))
			if rec.Reason != "" {
				s.MigrationReasons[rec.Reason]++
			}
		case "ledger":
			entry := LedgerEntry{Rank: -1, Cause: rec.Reason, LatNs: rec.DurNs, Energy: rec.Energy}
			if rec.Vm != nil {
				entry.VM = *rec.Vm
			}
			if rec.Rank != nil {
				entry.Rank = *rec.Rank
			}
			s.Attribution = append(s.Attribution, entry)
		default:
			s.Points[rec.Type]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading jsonl: %w", err)
	}
	sortEntries(s.Attribution)
	return s, nil
}

// SummarizeEventsCSV parses an events-CSV trace (a TraceStream's output)
// into the shared summary model. The CSV format carries no rank
// names, so RankNames stays empty and labels fall back to numeric ids.
func SummarizeEventsCSV(r io.Reader) (*TraceSummary, error) {
	s := newTraceSummary()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			if text != strings.TrimSpace(eventsCSVHeader) {
				return nil, fmt.Errorf("telemetry: not an events CSV (header %q)", text)
			}
			continue
		}
		f := strings.Split(text, ",")
		if len(f) != 8 {
			// A short final row is a trace cut off mid-record, not a
			// malformed file.
			if !sc.Scan() && sc.Err() == nil {
				return nil, fmt.Errorf("telemetry: csv line %d (%d of 8 fields): %w", line, len(f), ErrTruncatedTrace)
			}
			return nil, fmt.Errorf("telemetry: csv line %d: %d fields, want 8", line, len(f))
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("telemetry: csv line %d: bad at_ns %q", line, f[1])
		}
		dur, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: csv line %d: bad dur_ns %q", line, f[2])
		}
		switch f[0] {
		case "power":
			rank, err := strconv.Atoi(f[3])
			if err != nil {
				return nil, fmt.Errorf("telemetry: csv line %d: bad rank %q", line, f[3])
			}
			s.addResidency(rank, f[5], usOf(sim.Time(dur)))
		case "migration":
			s.MigrationsUs = append(s.MigrationsUs, usOf(sim.Time(dur)))
			if f[5] != "" {
				s.MigrationReasons[f[5]]++
			}
		case "ledger":
			entry := LedgerEntry{Rank: -1, Cause: f[5], LatNs: dur}
			if f[3] != "" {
				rank, err := strconv.Atoi(f[3])
				if err != nil {
					return nil, fmt.Errorf("telemetry: csv line %d: bad rank %q", line, f[3])
				}
				entry.Rank = rank
			}
			vm, err := strconv.ParseInt(f[6], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: csv line %d: bad vm %q", line, f[6])
			}
			entry.VM = vm
			energy, err := strconv.ParseFloat(f[7], 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: csv line %d: bad energy %q", line, f[7])
			}
			entry.Energy = energy
			s.Attribution = append(s.Attribution, entry)
		default:
			s.Points[f[0]]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading csv: %w", err)
	}
	sortEntries(s.Attribution)
	return s, nil
}

// SummarizeTrace sniffs the trace format from the first bytes of r and
// dispatches to the matching reader: a Chrome trace opens with a JSON object
// containing "traceEvents", a JSONL trace with a {"type":...} object, and an
// events CSV with its fixed header.
func SummarizeTrace(r io.Reader) (*TraceSummary, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(256)
	trimmed := bytes.TrimLeft(head, " \t\r\n")
	switch {
	case bytes.HasPrefix(trimmed, []byte("{")):
		// One JSON object: Chrome trace if the first line mentions
		// traceEvents, a JSONL record stream otherwise.
		firstLine := trimmed
		if i := bytes.IndexByte(firstLine, '\n'); i >= 0 {
			firstLine = firstLine[:i]
		}
		if bytes.Contains(firstLine, []byte(`"traceEvents"`)) {
			return SummarizeChromeTrace(br)
		}
		return SummarizeJSONL(br)
	case bytes.HasPrefix(trimmed, []byte("record,")):
		return SummarizeEventsCSV(br)
	case len(trimmed) == 0:
		return nil, fmt.Errorf("telemetry: %w", ErrEmptyTrace)
	default:
		return nil, fmt.Errorf("telemetry: unrecognized trace format (starts %q)", string(trimmed[:min(16, len(trimmed))]))
	}
}
