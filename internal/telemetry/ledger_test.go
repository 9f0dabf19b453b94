package telemetry

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestCauseStringRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for c := Cause(0); int(c) < NumCauses; c++ {
		name := c.String()
		if strings.Contains(name, "Cause(") {
			t.Fatalf("cause %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate cause name %q", name)
		}
		seen[name] = true
		back, ok := ParseCause(name)
		if !ok || back != c {
			t.Fatalf("ParseCause(%q) = %v, %v; want %v", name, back, ok, c)
		}
	}
	if _, ok := ParseCause("no-such-cause"); ok {
		t.Fatal("ParseCause accepted an unknown name")
	}
}

func TestLedgerChargeAccumulates(t *testing.T) {
	l := NewLedger(4)
	l.Charge(7, 2, CauseBaseline, 100, 1.5)
	l.Charge(7, 2, CauseBaseline, 50, 0.5)
	l.Charge(7, -1, CauseSMCMissWalk, 30, 0)
	l.Charge(SystemVM, 0, CauseFaultRetry, 0, 2.0)

	if tot := l.Total(); tot.LatNs != 180 || tot.Energy != 4.0 {
		t.Fatalf("total = %+v", tot)
	}
	byCause := l.CauseTotals()
	if byCause[CauseBaseline].LatNs != 150 || byCause[CauseBaseline].Energy != 2.0 {
		t.Fatalf("baseline total = %+v", byCause[CauseBaseline])
	}
	if byCause[CauseSMCMissWalk].LatNs != 30 {
		t.Fatalf("walk total = %+v", byCause[CauseSMCMissWalk])
	}

	snap := l.Snapshot()
	if snap.TotalLatNs != 180 || snap.TotalEnergy != 4.0 {
		t.Fatalf("snapshot totals = %+v", snap)
	}
	// Canonical order: (vm, rank, cause code); SystemVM (-1) sorts first.
	wantOrder := []LedgerEntry{
		{VM: SystemVM, Rank: 0, Cause: "fault-retry", LatNs: 0, Energy: 2.0},
		{VM: 7, Rank: -1, Cause: "smc-miss-walk", LatNs: 30, Energy: 0},
		{VM: 7, Rank: 2, Cause: "baseline", LatNs: 150, Energy: 2.0},
	}
	if len(snap.Entries) != len(wantOrder) {
		t.Fatalf("entries = %+v", snap.Entries)
	}
	for i, want := range wantOrder {
		if snap.Entries[i] != want {
			t.Fatalf("entry %d = %+v, want %+v", i, snap.Entries[i], want)
		}
	}
}

func TestLedgerNilIsSafe(t *testing.T) {
	var l *Ledger
	l.Charge(1, 0, CauseBaseline, 10, 1)
	l.Span(1, 0, CauseBaseline, 5, 10, 0)
	l.ChargeResidency(nil)
	l.EmitTo(nil, 0)
	if got := l.Total(); got != (LedgerCell{}) {
		t.Fatalf("nil ledger total = %+v", got)
	}
	if s := l.Snapshot(); s.TotalLatNs != 0 || len(s.Entries) != 0 {
		t.Fatalf("nil ledger snapshot = %+v", s)
	}
}

// TestLedgerEndDoesNotAllocate: charging a span to an already-charged cell
// only adds to it; the ledger keeps no copy of the span.
func TestLedgerEndDoesNotAllocate(t *testing.T) {
	l := NewLedger(2)
	end := func() { l.Span(5, 1, CauseMigrationCopy, 100, 400, 2.5) }
	end() // first charge allocates the VM's row
	if allocs := testing.AllocsPerRun(1000, end); allocs != 0 {
		t.Fatalf("Ledger.Span allocates %.1f objects/op, want 0", allocs)
	}
}

func TestLedgerSpanEndingBeforeStartPanics(t *testing.T) {
	l := NewLedger(2)
	defer func() {
		if recover() == nil {
			t.Fatal("a span ending before its start was charged")
		}
	}()
	l.Span(5, 1, CauseMigrationCopy, 400, 100, 0)
}

func TestLedgerWriteJSONDeterministicAndParses(t *testing.T) {
	build := func() *Ledger {
		l := NewLedger(3)
		// Charge in scrambled vm order; snapshot must still sort canonically.
		l.Charge(9, 1, CauseSelfRefreshWake, 40, 0)
		l.Charge(SystemVM, 2, CauseBaseline, 0, 123.456)
		l.Charge(3, 0, CauseDegradedRead, 25, 0)
		return l
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical charge histories produced different artifacts")
	}
	snap, err := ParseLedgerSnapshot(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.TotalLatNs != 65 || snap.TotalEnergy != 123.456 {
		t.Fatalf("parsed totals = %+v", snap)
	}
	if len(snap.Entries) != 3 || snap.Entries[0].VM != SystemVM {
		t.Fatalf("parsed entries = %+v", snap.Entries)
	}
}

// TestLedgerRoundTripThroughTraceSinks dumps a ledger into a tracer and
// checks that the stream and its Chrome conversion both rebuild identical
// attribution entries: `dtlstat top` reads the former, Perfetto the latter.
func TestLedgerRoundTripThroughTraceSinks(t *testing.T) {
	var want []LedgerEntry
	drive := func(tr *Tracer) {
		tr.PowerTransition(0, 1, 100)
		l := NewLedger(4)
		l.Charge(5, 2, CauseBaseline, 1234, 0.125)
		l.Charge(5, 2, CauseSelfRefreshWake, 17, 0)
		l.Charge(SystemVM, -1, CauseFaultRetry, 500, 0)
		l.Span(5, 1, CauseMigrationCopy, 100, 400, 2.5)
		tr.AttrSpan(5, 1, CauseMigrationCopy.String(), 100, 400, 2.5)
		tr.Finish(1000)
		l.EmitTo(tr, 1000)
		want = l.Snapshot().Entries
	}
	check := func(name string, s *TraceSummary, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Attribution) != len(want) {
			t.Fatalf("%s: attribution = %+v, want %+v", name, s.Attribution, want)
		}
		for i := range want {
			if s.Attribution[i] != want[i] {
				t.Fatalf("%s: entry %d = %+v, want %+v", name, i, s.Attribution[i], want[i])
			}
		}
		// Live attr spans count as points, never as ledger entries.
		if s.Points["attr"] != 1 {
			t.Fatalf("%s: attr points = %d", name, s.Points["attr"])
		}
	}

	jsonl, _ := streamed(t, drive)
	s, err := SummarizeJSONL(bytes.NewReader(jsonl.Bytes()))
	check("jsonl", s, err)

	s = newTraceSummary()
	for _, ev := range chromeDoc(t, converted(t, jsonl.Bytes(), FormatChrome)) {
		switch ev.Cat {
		case "attr":
			s.Points["attr"]++
		case "ledger":
			e := LedgerEntry{
				VM: int64(ev.Args["vm"].(float64)), Rank: -1, Cause: ev.Args["cause"].(string),
				LatNs: int64(ev.Args["lat_ns"].(float64)), Energy: ev.Args["energy"].(float64),
			}
			if rank, ok := ev.Args["rank"].(float64); ok {
				e.Rank = int(rank)
			}
			s.Attribution = append(s.Attribution, e)
		}
	}
	sortEntries(s.Attribution)
	check("chrome", s, nil)
}

func TestSummarizeEmptyTrace(t *testing.T) {
	for _, in := range []string{"", "\n  \n"} {
		_, err := SummarizeJSONL(strings.NewReader(in))
		if !errors.Is(err, ErrEmptyTrace) {
			t.Fatalf("%q: err = %v, want ErrEmptyTrace", in, err)
		}
	}
}

func TestSummarizeTruncatedTraces(t *testing.T) {
	jsonl := streamFixture(t).Bytes()
	torn := jsonl[:len(jsonl)-9]
	_, err := SummarizeJSONL(bytes.NewReader(torn))
	if !errors.Is(err, ErrTruncatedTrace) {
		t.Fatalf("jsonl err = %v, want ErrTruncatedTrace", err)
	}
	if !strings.Contains(err.Error(), "line") || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("jsonl truncation error lacks position: %v", err)
	}
	// The converter reads through the same reader, so it refuses the torn
	// stream instead of writing a partial export.
	for _, format := range []TraceFormat{FormatChrome, FormatCSV} {
		if err := ConvertJSONL(bytes.NewReader(torn), io.Discard, format); !errors.Is(err, ErrTruncatedTrace) {
			t.Fatalf("convert to %v: err = %v, want ErrTruncatedTrace", format, err)
		}
	}
	if _, err := SummarizeJSONL(bytes.NewReader(jsonl)); err != nil {
		t.Fatalf("intact jsonl: %v", err)
	}
}

func TestChargeResidencyFoldsPowerSpans(t *testing.T) {
	tr := testTracer(2)
	tr.PowerTransition(0, 1, 100) // rank 0: standby 0..100, self-refresh 100..1000
	tr.Finish(1000)

	l := NewLedger(2)
	l.ChargeResidency(tr)
	want := 2*stateWeight("standby")*1000 - stateWeight("standby")*900 + stateWeight("self-refresh")*900
	if got := l.Total().Energy; got != want {
		t.Fatalf("residency energy = %g, want %g", got, want)
	}
	if l.Total().LatNs != 0 {
		t.Fatal("residency charged latency")
	}
	// All of it lands on (SystemVM, rank, baseline).
	for _, e := range l.Snapshot().Entries {
		if e.VM != SystemVM || e.Cause != "baseline" {
			t.Fatalf("residency entry = %+v", e)
		}
	}
}
