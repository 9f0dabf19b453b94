package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"math/rand"
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
		if got := s.Fold(rank).Total; got != 1.0 {
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
// stream's buffer, matching the StreamSampler discipline, and refilling the
// energy and reason memos reuses theirs.
func TestTraceStreamSteadyStateDoesNotAllocate(t *testing.T) {
	ts := NewTraceStream(discardWriter{})
	mig := Event{Kind: EvMigration, At: 100, Dur: 50, Rank: -1, Channel: 1, Src: 7, Dst: 9, Reason: "drain"}
	attrs := [2]Event{
		{Kind: EvAttr, At: 100, Dur: 50, Rank: 3, Channel: -1, Src: 5, Energy: 1.1534336e6, Reason: "demotion-wait"},
		{Kind: EvAttr, At: 100, Dur: 50, Rank: 3, Channel: -1, Src: 5, Energy: 2.5, Reason: "migration-stall"},
	}
	for name, emit := range map[string]func(int){
		"migration":        func(int) { ts.event(&mig) },
		"alternating attr": func(i int) { ts.event(&attrs[i%2]) },
	} {
		emit(0) // warm up: size the buffer and both memo values
		emit(1)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() { emit(i); i++ })
		if allocs != 0 {
			t.Fatalf("steady-state %s event allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestTracerEmitDoesNotAllocate: the tracer keeps no copy of what it
// streams, so the hot emitters allocate nothing once the row buffer has
// grown, even when every record refills the energy and reason memos.
func TestTracerEmitDoesNotAllocate(t *testing.T) {
	tr := testTracer(2)
	tr.AttachStream(NewTraceStream(io.Discard))
	alternate := 0
	for name, emit := range map[string]func(){
		"Migration": func() { tr.Migration(1, 7, 9, "hotness-swap", 100, 150) },
		"AttrSpan":  func() { tr.AttrSpan(5, 1, "migration-copy", 100, 400, 2.5) },
		"AttrSpan alternating": func() {
			if alternate++; alternate%2 == 0 {
				tr.AttrSpan(5, 1, "demotion-wait", 100, 400, 1.1534336e6)
			} else {
				tr.AttrSpan(-1, 0, "fault-retry", 100, 400, 0)
			}
		},
	} {
		emit() // warm up
		emit()
		emit() // warm up
		if allocs := testing.AllocsPerRun(1000, emit); allocs != 0 {
			t.Fatalf("Tracer.%s allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// recordWriter keeps each Write as one row, so a test sees exactly what
// the stream wrote per call.
type recordWriter struct{ rows [][]byte }

func (w *recordWriter) Write(p []byte) (int, error) {
	w.rows = append(w.rows, append([]byte(nil), p...))
	return len(p), nil
}

// TestEventEncoderMemosMatchFreshStream streams a long random sequence of
// events of every kind, plus a kind the tracer does not define, through
// one stream, whose energy and reason memos then hit, miss and refill in
// every order. Each record must be exactly what a fresh stream renders for
// that event alone, written by one Write, and its energy and reason must
// decode back to the event's bits and string.
func TestEventEncoderMemosMatchFreshStream(t *testing.T) {
	energies := []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072e-310, 1e-7, 1e21,
		1.1534336e6, 1.1534336e6, 2.5, -3.75, 0.1, 1 << 53,
	}
	reasons := []string{
		"", "powerdown-drain", "demotion-wait", "hotness-swap",
		`q"uote`, `back\slash`, "tab\there", "é",
	}
	kinds := make([]EventKind, 0, numEventKinds+1)
	for k := 0; k < numEventKinds; k++ {
		kinds = append(kinds, EventKind(k))
	}
	kinds = append(kinds, EventKind(200)) // rendered through the generic opening

	rng := rand.New(rand.NewSource(1))
	w := &recordWriter{}
	ts := NewTraceStream(w)
	var events []Event
	var prev Event
	for i := 0; i < 20000; i++ {
		ev := Event{
			Kind: kinds[rng.Intn(len(kinds))], At: sim.Time(rng.Int63n(1 << 40)),
			Rank: rng.Intn(40) - 8, Channel: rng.Intn(12) - 4,
			Src: rng.Int63n(1<<20) - 8, Dst: rng.Int63n(1 << 20),
			Energy: energies[rng.Intn(len(energies))], Reason: reasons[rng.Intn(len(reasons))],
		}
		if rng.Intn(2) == 0 {
			ev.Dur = sim.Time(rng.Int63n(1 << 30))
		}
		switch rng.Intn(4) {
		case 0: // a random energy
			ev.Energy = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		case 1: // repeat the last energy and reason, as a drain's attr records do
			ev.Energy, ev.Reason = prev.Energy, prev.Reason
		}
		prev = ev
		events = append(events, ev)
		ts.event(&ev)
	}
	if err := ts.Err(); err != nil {
		t.Fatal(err)
	}
	if len(w.rows) != len(events) || ts.Rows() != len(events) {
		t.Fatalf("%d events made %d writes and %d rows", len(events), len(w.rows), ts.Rows())
	}
	for i := range events {
		ev := &events[i]
		var fresh bytes.Buffer
		NewTraceStream(&fresh).event(ev)
		if got := w.rows[i]; !bytes.Equal(got, fresh.Bytes()) {
			t.Fatalf("event %d %+v:\n got %s\nwant %s", i, *ev, got, fresh.Bytes())
		}
		var rec struct {
			Type   string   `json:"type"`
			Energy *float64 `json:"energy"`
			Reason string   `json:"reason"`
		}
		if err := json.Unmarshal(w.rows[i], &rec); err != nil {
			t.Fatalf("event %d: %s: %v", i, w.rows[i], err)
		}
		if rec.Type != ev.Kind.String() || rec.Reason != ev.Reason {
			t.Fatalf("event %d %+v decoded type %q reason %q", i, *ev, rec.Type, rec.Reason)
		}
		if hasEnergy := ev.Kind == EvAttr || ev.Kind == EvLedger; hasEnergy != (rec.Energy != nil) {
			t.Fatalf("event %d %+v: energy field present = %v", i, *ev, rec.Energy != nil)
		}
		if rec.Energy != nil && math.Float64bits(*rec.Energy) != math.Float64bits(ev.Energy) {
			t.Fatalf("event %d: energy %v (bits %#x) decoded as %v (bits %#x)", i,
				ev.Energy, math.Float64bits(ev.Energy), *rec.Energy, math.Float64bits(*rec.Energy))
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
