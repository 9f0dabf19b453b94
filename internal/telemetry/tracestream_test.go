package telemetry

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dtl/internal/sim"
)

// streamed drives a fresh four-rank tracer with a TraceStream attached and
// returns the streamed bytes and the stream.
func streamed(t *testing.T, drive func(*Tracer)) (*bytes.Buffer, *TraceStream) {
	t.Helper()
	var buf bytes.Buffer
	tr := testTracer(4)
	ts := NewTraceStream(&buf)
	tr.AttachStream(ts)
	drive(tr)
	if err := ts.Err(); err != nil {
		t.Fatal(err)
	}
	return &buf, ts
}

// streamFixture streams the fixture history and returns the streamed bytes.
func streamFixture(t *testing.T) *bytes.Buffer {
	t.Helper()
	buf, ts := streamed(t, fixtureHistory)
	// 7 spans + 5 events, streamed as they happened.
	if ts.Rows() != 12 {
		t.Fatalf("streamed rows = %d, want 12", ts.Rows())
	}
	return buf
}

// converted re-encodes a JSONL stream as format.
func converted(t *testing.T, jsonl []byte, format TraceFormat) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := ConvertJSONL(bytes.NewReader(jsonl), &out, format); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// assertFixtureSummary checks the quantities every reader must agree on for
// the fixture history.
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
// the fixture's summary.
func TestStreamedJSONLRoundTrip(t *testing.T) {
	buf := streamFixture(t)
	s, err := SummarizeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertFixtureSummary(t, s)
	if s.RankNames[3] != "ch1/rk1" {
		t.Fatalf("rank 3 name = %q", s.RankNames[3])
	}
}

// update rewrites the streamed-trace goldens instead of comparing.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenHistories are the tracer histories whose stream and conversions
// are pinned under testdata, by file-name prefix.
var goldenHistories = []struct {
	prefix string
	drive  func(*Tracer)
}{{"fixture", fixtureHistory}, {"kinds", allKindsHistory}}

// checkGolden compares got with testdata/file, or rewrites it under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestStreamedFixtureGolden pins the exact streamed JSONL bytes of the
// fixture and all-kinds histories. Records appear in completion order:
// events when emitted, power spans when the rank leaves the state, the
// rest at Finish. Regenerate with
//
//	go test ./internal/telemetry -run TestStreamedFixtureGolden -update
func TestStreamedFixtureGolden(t *testing.T) {
	for _, h := range goldenHistories {
		buf, _ := streamed(t, h.drive)
		checkGolden(t, h.prefix+".stream.jsonl", buf.Bytes())
	}
}

// TestStreamedCSVRoundTrip: the events CSV converted from a stream holds
// the bytes the simulator used to stream as CSV directly.
func TestStreamedCSVRoundTrip(t *testing.T) {
	for _, h := range goldenHistories {
		buf, _ := streamed(t, h.drive)
		checkGolden(t, h.prefix+".stream.csv", converted(t, buf.Bytes(), FormatCSV))
	}
}

// TestStreamSurvivesRingWraparound: nothing between the tracer and the
// stream has a capacity, so every one of 1<<16 + 100 events reaches it.
func TestStreamSurvivesRingWraparound(t *testing.T) {
	const emitted = 1<<16 + 100
	var buf bytes.Buffer
	tr := testTracer(1)
	tr.AttachStream(NewTraceStream(&buf))
	for i := 0; i < emitted; i++ {
		tr.SMCMiss(sim.Time(i))
	}
	tr.Finish(emitted)
	s, err := SummarizeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Points["smc_miss"] != emitted {
		t.Fatalf("stream carried %d events, want all %d", s.Points["smc_miss"], emitted)
	}
}

func TestTraceStreamWriteErrorIsSticky(t *testing.T) {
	boom := errors.New("disk full")
	ts := NewTraceStream(&failWriter{err: boom})
	tr := testTracer(1)
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
	ts := NewTraceStream(discardWriter{})
	ev := Event{Kind: EvMigration, At: 100, Dur: 50, Rank: -1, Channel: 1, Src: 7, Dst: 9, Reason: "drain"}
	ts.event(ev) // warm up: size the buffer
	allocs := testing.AllocsPerRun(1000, func() { ts.event(ev) })
	if allocs != 0 {
		t.Fatalf("steady-state event allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTracerEmitDoesNotAllocate: the tracer keeps no copy of what it
// streams, so the hot emitters allocate nothing once the row buffer has
// grown.
func TestTracerEmitDoesNotAllocate(t *testing.T) {
	tr := testTracer(2)
	tr.AttachStream(NewTraceStream(io.Discard))
	for name, emit := range map[string]func(){
		"Migration": func() { tr.Migration(1, 7, 9, "hotness-swap", 100, 150) },
		"AttrSpan":  func() { tr.AttrSpan(5, 1, "migration-copy", 100, 400, 2.5) },
	} {
		emit() // warm up
		if allocs := testing.AllocsPerRun(1000, emit); allocs != 0 {
			t.Fatalf("Tracer.%s allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

func TestAppendJSONStringMatchesAppendQuote(t *testing.T) {
	for _, s := range []string{"", "hotness-swap", "a b", `q"uote`, `back\slash`, "tab\t", "é", "\x7f", "<&>"} {
		got := string(appendJSONString(nil, s))
		if want := string(strconv.AppendQuote(nil, s)); got != want {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
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

// TestSummarizeTraceSniffsAllFormats: the one reader reads JSONL and
// refuses the Chrome and CSV exports of the same history with ErrNotJSONL.
func TestSummarizeTraceSniffsAllFormats(t *testing.T) {
	jsonl := streamFixture(t).Bytes()
	s, err := SummarizeJSONL(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	assertFixtureSummary(t, s)
	for _, format := range []TraceFormat{FormatChrome, FormatCSV} {
		_, err := SummarizeJSONL(bytes.NewReader(converted(t, jsonl, format)))
		if !errors.Is(err, ErrNotJSONL) || !strings.Contains(err.Error(), "-trace-format jsonl") {
			t.Fatalf("%v export: err = %v, want ErrNotJSONL naming -trace-format jsonl", format, err)
		}
	}
	if _, err := SummarizeJSONL(strings.NewReader("hello world")); err == nil {
		t.Fatal("expected error on garbage")
	}
}
