package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"dtl/internal/sim"
)

// Trace reading errors callers can test with errors.Is: dtlstat turns them
// into targeted diagnostics instead of a generic parse failure.
var (
	// ErrEmptyTrace marks a trace file with no content at all.
	ErrEmptyTrace = errors.New("empty trace (no records)")
	// ErrTruncatedTrace marks a trace file that ends mid-record — the
	// producer crashed or is still writing.
	ErrTruncatedTrace = errors.New("trace truncated mid-record")
	// ErrNotJSONL marks a Chrome or events-CSV file given to the reader:
	// those encodings are converted exports, and only the JSONL stream
	// they were converted from is read back.
	ErrNotJSONL = errors.New("not a JSONL trace: chrome and csv are exports; rerun with -trace-format jsonl")
)

// TraceFormat selects the on-disk encoding of a trace file. The simulator
// always streams JSONL; the other two are converted from the finished
// stream by ConvertJSONL.
type TraceFormat uint8

const (
	// FormatChrome is Chrome trace_event JSON (one document, microsecond
	// timestamps); it opens directly in Perfetto.
	FormatChrome TraceFormat = iota
	// FormatJSONL is JSON Lines: one flat record per power span or event,
	// integer-nanosecond timestamps, grep/jq-friendly, streamed as the run
	// progresses.
	FormatJSONL
	// FormatCSV is the flat events CSV with a leading record-type column.
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

// Row renderers of the TraceStream sink. Rows are appended to a
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
// Absent fields are omitted.

// appendJSONField appends key, a rendered `,"name":` field opening, and v.
func appendJSONField(buf []byte, key string, v int64) []byte {
	buf = append(buf, key...)
	return strconv.AppendInt(buf, v, 10)
}

func appendJSONStringField(buf []byte, key, v string) []byte {
	buf = append(buf, key...)
	return appendJSONString(buf, v)
}

// appendJSONString quotes v. Printable ASCII with no quote or backslash,
// which every tag the model emits is, is copied between quotes as is; any
// other string takes strconv.AppendQuote, which yields the same bytes for
// the fast-path strings.
func appendJSONString(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return strconv.AppendQuote(buf, v)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, v...)
	return append(buf, '"')
}

// appendPowerJSONL renders one power span as a JSONL record.
func appendPowerJSONL(buf []byte, rankName, stateName string, s PowerSpan) []byte {
	buf = append(buf, `{"type":"power"`...)
	buf = appendJSONField(buf, `,"rank":`, int64(s.Rank))
	buf = appendJSONStringField(buf, `,"rank_name":`, rankName)
	buf = appendJSONStringField(buf, `,"state":`, stateName)
	buf = appendJSONField(buf, `,"start_ns":`, int64(s.Start))
	buf = appendJSONField(buf, `,"end_ns":`, int64(s.End))
	return append(buf, '}', '\n')
}

// eventOpen is each known kind's record opening, `{"type":"<kind>","at_ns":`,
// rendered once.
var eventOpen = func() (open [numEventKinds]string) {
	for k := range open {
		open[k] = `{"type":` + string(appendJSONString(nil, EventKind(k).String())) + `,"at_ns":`
	}
	return open
}()

// appendEventJSONL renders one structured event as a JSONL record. The
// stream remembers the last energy field it rendered, keyed by the value's
// math.Float64bits (so 0 and -0, and NaN payloads, stay apart), and each
// kind's last reason field, keyed by the reason string: a drain's
// thousands of attr records carry one energy and one cause, and render
// each once. A memo holds exactly the bytes the field renders to, so
// records are unchanged.
func (ts *TraceStream) appendEventJSONL(buf []byte, ev *Event) []byte {
	if int(ev.Kind) < numEventKinds {
		buf = append(buf, eventOpen[ev.Kind]...)
	} else {
		buf = append(buf, `{"type":`...)
		buf = appendJSONString(buf, ev.Kind.String())
		buf = append(buf, `,"at_ns":`...)
	}
	buf = strconv.AppendInt(buf, int64(ev.At), 10)
	if ev.Dur != 0 {
		buf = appendJSONField(buf, `,"dur_ns":`, int64(ev.Dur))
	}
	if ev.Rank >= 0 {
		buf = appendJSONField(buf, `,"rank":`, int64(ev.Rank))
	}
	if ev.Channel >= 0 {
		buf = appendJSONField(buf, `,"channel":`, int64(ev.Channel))
	}
	switch ev.Kind {
	case EvMigration:
		buf = appendJSONField(buf, `,"src":`, ev.Src)
		buf = appendJSONField(buf, `,"dst":`, ev.Dst)
	case EvScrub:
		buf = appendJSONField(buf, `,"segments":`, ev.Src)
	case EvFault, EvStorm:
		buf = appendJSONField(buf, `,"count":`, ev.Src)
	case EvAttr, EvLedger:
		buf = appendJSONField(buf, `,"vm":`, ev.Src)
		if bits := math.Float64bits(ev.Energy); bits != ts.energyBits || len(ts.energy) == 0 {
			ts.energyBits = bits
			ts.energy = strconv.AppendFloat(append(ts.energy[:0], `,"energy":`...), ev.Energy, 'g', -1, 64)
		}
		buf = append(buf, ts.energy...)
	}
	if ev.Reason != "" {
		// The field depends on the reason alone. A slot per kind keeps a
		// drain's alternating migration and attr records both hitting.
		m := &ts.reasons[int(ev.Kind)%len(ts.reasons)]
		if ev.Reason != m.key { // a key is never "", so a fresh memo misses
			m.key = ev.Reason
			m.field = appendJSONString(append(m.field[:0], `,"reason":`...), ev.Reason)
		}
		buf = append(buf, m.field...)
	}
	return append(buf, '}', '\n')
}

// csvSafe neutralizes the field separator inside free-text tags.
func csvSafe(s string) string {
	if !strings.ContainsRune(s, ',') {
		return s
	}
	return strings.ReplaceAll(s, ",", ";")
}

// TraceSummary is the decoded aggregate view of a JSONL trace, produced by
// SummarizeJSONL and consumed by cmd/dtlstat.
type TraceSummary struct {
	// RankNames maps a global rank id to its name ("ch0/rk3").
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

// StateTime is rank-time split by power state, in microseconds: one rank's
// residency, a rack expander's, or the whole device's.
type StateTime struct {
	Us    map[string]float64 // state name → microseconds
	Total float64            // all states; a rank's is the traced run
}

// Share is state's fraction of the total, 0 when there is no rank time.
func (t StateTime) Share(state string) float64 {
	if t.Total <= 0 {
		return 0
	}
	return t.Us[state] / t.Total
}

// Shares maps each of states to its Share; it is empty when there is no
// rank time.
func (t StateTime) Shares(states []string) map[string]float64 {
	out := make(map[string]float64, len(states))
	if t.Total > 0 {
		for _, st := range states {
			out[st] = t.Share(st)
		}
	}
	return out
}

// Fold sums the residency of ranks into one StateTime. Float addition is
// not associative, so the order is fixed: ranks as given, each rank's
// states by name, and the total as the sum of the per-rank totals. The
// same summary therefore always folds to the same bits, which map order
// would not give.
func (s *TraceSummary) Fold(ranks ...int) StateTime {
	t := StateTime{Us: map[string]float64{}}
	for _, rank := range ranks {
		var rankUs float64
		s.eachState(rank, func(state string, us float64) {
			t.Us[state] += us
			rankUs += us
		})
		t.Total += rankUs
	}
	return t
}

// eachState calls fn for each state of rank's residency, in name order.
func (s *TraceSummary) eachState(rank int, fn func(state string, us float64)) {
	m := s.Residency[rank]
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn(name, m[name])
	}
}

// RankLabel prefers the recorded rank name ("ch0/rk3"); falls back to the
// numeric id.
func (s *TraceSummary) RankLabel(rank int) string {
	if name, ok := s.RankNames[rank]; ok && name != "" {
		return name
	}
	return fmt.Sprintf("rk%d", rank)
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
	Src      *int64  `json:"src"`
	Dst      int64   `json:"dst"`
	Segments *int64  `json:"segments"`
	Count    *int64  `json:"count"`
	Vm       *int64  `json:"vm"`
	Energy   float64 `json:"energy"`
	Reason   string  `json:"reason"`
}

// src is the value the event's Src field held: the migration source, the
// scrubbed-segment count, the fault or storm count, or the charged VM.
func (r *jsonlRecord) src() int64 {
	for _, p := range [...]*int64{r.Src, r.Segments, r.Count, r.Vm} {
		if p != nil {
			return *p
		}
	}
	return 0
}

// scanJSONL is the one trace reader: it decodes r line by line and hands
// each record to fn, so SummarizeJSONL and ConvertJSONL accept exactly the
// same inputs. A file with no record is ErrEmptyTrace, a malformed final
// line ErrTruncatedTrace, and a Chrome or events-CSV export ErrNotJSONL.
func scanJSONL(r io.Reader, fn func(*jsonlRecord)) error {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(`{"traceEvents"`)); bytes.HasPrefix(head, []byte(`{"traceEvents"`)) ||
		bytes.HasPrefix(head, []byte("record,")) {
		return fmt.Errorf("telemetry: %w", ErrNotJSONL)
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line, records := 0, 0
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
				return fmt.Errorf("telemetry: jsonl line %d (byte offset %d): %w", line, lineStart, ErrTruncatedTrace)
			}
			return fmt.Errorf("telemetry: jsonl line %d: %w", line, err)
		}
		switch {
		case rec.Type == "":
			return fmt.Errorf("telemetry: jsonl line %d: record has no type", line)
		case rec.Type == "power" && rec.Rank == nil:
			return fmt.Errorf("telemetry: jsonl line %d: power record has no rank", line)
		}
		records++
		fn(&rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: reading jsonl: %w", err)
	}
	if records == 0 {
		return fmt.Errorf("telemetry: %w", ErrEmptyTrace)
	}
	return nil
}

// SummarizeJSONL parses a JSONL trace (a TraceStream's output) into
// per-rank power residency, migration-latency samples, point-event counts
// and the finish-time ledger dump.
func SummarizeJSONL(r io.Reader) (*TraceSummary, error) {
	s := newTraceSummary()
	err := scanJSONL(r, func(rec *jsonlRecord) {
		switch rec.Type {
		case "power":
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
	})
	if err != nil {
		return nil, err
	}
	sortEntries(s.Attribution)
	return s, nil
}
