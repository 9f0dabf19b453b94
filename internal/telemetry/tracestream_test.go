package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dtl/internal/sim"
)

// TestRingWraparoundEvictionOrderInSink is the wraparound contract end to
// end: once the ring is full the *oldest* events are evicted first, Events()
// stays chronological, and the Chrome sink (the one export that reads the
// ring) renders the survivors in sorted order — a wrapped trace must never
// interleave old and new records.
func TestRingWraparoundEvictionOrderInSink(t *testing.T) {
	const cap = 8
	tr := testTracer(1, cap)
	for i := 0; i < 3*cap; i++ {
		tr.SMCMiss(sim.Time(10 * (i + 1)))
	}
	tr.Finish(1000)

	if tr.Dropped() != 2*cap {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), 2*cap)
	}
	evs := tr.Events()
	if len(evs) != cap {
		t.Fatalf("retained = %d, want %d", len(evs), cap)
	}
	// Oldest-first eviction: survivors are exactly the newest cap events.
	for i, ev := range evs {
		if want := sim.Time(10 * (2*cap + i + 1)); ev.At != want {
			t.Fatalf("event %d at %v, want %v", i, ev.At, want)
		}
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	var ats []int64
	for _, ev := range ct.TraceEvents {
		if ev.Name == "smc_miss" {
			ats = append(ats, int64(ev.Ts*1e3))
		}
	}
	if len(ats) != cap {
		t.Fatalf("sink rendered %d smc_miss records, want %d", len(ats), cap)
	}
	if !sort.SliceIsSorted(ats, func(i, j int) bool { return ats[i] < ats[j] }) {
		t.Fatalf("sink output not chronological after wrap: %v", ats)
	}
	if ats[0] != int64(10*(2*cap+1)) {
		t.Fatalf("oldest surviving record at %d, want %d (oldest evicted first)", ats[0], 10*(2*cap+1))
	}
}

// streamed drives a fresh four-rank tracer with a TraceStream of the given
// format attached and returns the streamed bytes and the stream.
func streamed(t *testing.T, format TraceFormat, drive func(*Tracer)) (*bytes.Buffer, *TraceStream) {
	t.Helper()
	var buf bytes.Buffer
	tr := testTracer(4, 0)
	ts, err := NewTraceStream(&buf, format)
	if err != nil {
		t.Fatal(err)
	}
	tr.AttachStream(ts)
	drive(tr)
	if err := ts.Err(); err != nil {
		t.Fatal(err)
	}
	return &buf, ts
}

// streamFixture streams the fixture history and returns the streamed bytes.
func streamFixture(t *testing.T, format TraceFormat) *bytes.Buffer {
	t.Helper()
	buf, ts := streamed(t, format, fixtureHistory)
	// 7 spans + 5 events, streamed as they happened.
	if ts.Rows() != 12 {
		t.Fatalf("streamed rows = %d, want 12", ts.Rows())
	}
	return buf
}

// assertFixtureSummary checks the quantities every reader must agree on for
// the traceFixture history.
func assertFixtureSummary(t *testing.T, s *TraceSummary) {
	t.Helper()
	for rank := 0; rank < 4; rank++ {
		if got := s.RankDuration(rank); got != 1.0 {
			t.Fatalf("rank %d duration = %v us, want 1", rank, got)
		}
	}
	if got := s.Residency[0]["mpsm"]; got != 0.9 {
		t.Fatalf("rank 0 mpsm = %v us, want 0.9", got)
	}
	if got := s.Residency[1]["self-refresh"]; got != 0.5 {
		t.Fatalf("rank 1 self-refresh = %v us, want 0.5", got)
	}
	if len(s.MigrationsUs) != 2 {
		t.Fatalf("migrations = %v", s.MigrationsUs)
	}
	if s.MigrationReasons["powerdown-drain"] != 1 || s.MigrationReasons["hotness-swap"] != 1 {
		t.Fatalf("reasons = %v", s.MigrationReasons)
	}
	if s.Points["smc_miss"] != 1 || s.Points["wake"] != 1 || s.Points["scrub"] != 1 {
		t.Fatalf("points = %v", s.Points)
	}
}

// TestStreamedJSONLRoundTrip: a trace streamed record by record parses into
// the same summary the batch Chrome pipeline produces.
func TestStreamedJSONLRoundTrip(t *testing.T) {
	buf := streamFixture(t, FormatJSONL)
	s, err := SummarizeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertFixtureSummary(t, s)
	if s.RankNames[3] != "ch1/rk1" {
		t.Fatalf("rank 3 name = %q", s.RankNames[3])
	}
}

// TestStreamedCSVRoundTrip: same for the events-CSV encoding (which carries
// no rank names).
func TestStreamedCSVRoundTrip(t *testing.T) {
	buf := streamFixture(t, FormatCSV)
	s, err := SummarizeEventsCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertFixtureSummary(t, s)
	if s.RankLabel(3) != "rk3" {
		t.Fatalf("csv rank label = %q, want numeric fallback", s.RankLabel(3))
	}
}

// update rewrites the streamed-trace goldens instead of comparing.
var update = flag.Bool("update", false, "rewrite golden files")

// TestStreamedFixtureGolden pins the exact streamed JSONL and CSV bytes of
// the fixture history. Records appear in completion order: events when
// emitted, power spans when the rank leaves the state, the rest at Finish.
// Regenerate with
//
//	go test ./internal/telemetry -run TestStreamedFixtureGolden -update
func TestStreamedFixtureGolden(t *testing.T) {
	for _, tc := range []struct {
		format TraceFormat
		file   string
	}{{FormatJSONL, "fixture.stream.jsonl"}, {FormatCSV, "fixture.stream.csv"}} {
		got := streamFixture(t, tc.format).Bytes()
		golden := filepath.Join("testdata", tc.file)
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed %v drifted from %s\n--- got ---\n%s--- want ---\n%s", tc.format, golden, got, want)
		}
	}
}

// TestStreamSurvivesRingWraparound is the point of streaming: events beyond
// the ring capacity still reach the sink, even though the ring forgot them.
func TestStreamSurvivesRingWraparound(t *testing.T) {
	const cap = 4
	var buf bytes.Buffer
	tr := testTracer(1, cap)
	ts, err := NewTraceStream(&buf, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	tr.AttachStream(ts)
	const emitted = 5 * cap
	for i := 0; i < emitted; i++ {
		tr.SMCMiss(sim.Time(i))
	}
	if tr.Dropped() != emitted-cap {
		t.Fatalf("ring dropped %d, want %d", tr.Dropped(), emitted-cap)
	}
	s, err := SummarizeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Points["smc_miss"] != emitted {
		t.Fatalf("stream carried %d events, want all %d despite wraparound", s.Points["smc_miss"], emitted)
	}
}

func TestTraceStreamRejectsChrome(t *testing.T) {
	if _, err := NewTraceStream(&bytes.Buffer{}, FormatChrome); err == nil {
		t.Fatal("chrome format must not stream")
	}
}

func TestTraceStreamWriteErrorIsSticky(t *testing.T) {
	boom := errors.New("disk full")
	ts, err := NewTraceStream(&failWriter{err: boom}, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTracer(1, 0)
	tr.AttachStream(ts)
	tr.SMCMiss(1)
	tr.SMCMiss(2)
	if !errors.Is(ts.Err(), boom) {
		t.Fatalf("err = %v, want %v", ts.Err(), boom)
	}
	if ts.Rows() != 0 {
		t.Fatalf("rows = %d after failed writes", ts.Rows())
	}
}

// TestTraceStreamSteadyStateDoesNotAllocate: per-record rendering reuses the
// stream's buffer, matching the StreamSampler discipline.
func TestTraceStreamSteadyStateDoesNotAllocate(t *testing.T) {
	ts, err := NewTraceStream(discardWriter{}, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTracer(1, 0)
	tr.AttachStream(ts)
	ev := Event{Kind: EvMigration, At: 100, Dur: 50, Rank: -1, Channel: 1, Src: 7, Dst: 9, Reason: "drain"}
	ts.event(ev) // warm up: size the buffer
	allocs := testing.AllocsPerRun(1000, func() { ts.event(ev) })
	if allocs != 0 {
		t.Fatalf("steady-state event allocates %.1f objects/op, want 0", allocs)
	}
}

func TestParseTraceFormat(t *testing.T) {
	cases := map[string]TraceFormat{"": FormatChrome, "chrome": FormatChrome, "jsonl": FormatJSONL, "csv": FormatCSV}
	for in, want := range cases {
		got, err := ParseTraceFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseTraceFormat(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), in)
		}
	}
	if _, err := ParseTraceFormat("xml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

// TestSummarizeTraceSniffsAllFormats: one entry point reads all three
// encodings of the same history into the same summary.
func TestSummarizeTraceSniffsAllFormats(t *testing.T) {
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, traceFixture(t)); err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*bytes.Buffer{
		"chrome": &chrome,
		"jsonl":  streamFixture(t, FormatJSONL),
		"csv":    streamFixture(t, FormatCSV),
	}
	for name, buf := range inputs {
		s, err := SummarizeTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertFixtureSummary(t, s)
	}
	if _, err := SummarizeTrace(strings.NewReader("")); err == nil {
		t.Fatal("expected error on empty trace")
	}
	if _, err := SummarizeTrace(strings.NewReader("hello world")); err == nil {
		t.Fatal("expected error on garbage")
	}
}
