package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dtl/internal/sim"
)

// fixtureHistory drives a mixed history through tr and finishes it:
// transitions, migrations, and point events on four ranks.
func fixtureHistory(tr *Tracer) {
	tr.PowerTransition(0, 2, 100)
	tr.PowerTransition(1, 1, 200)
	tr.PowerTransition(1, 0, 700)
	tr.Migration(0, 5, 9, "powerdown-drain", 100, 400)
	tr.Migration(1, 7, 3, "hotness-swap", 150, 450)
	tr.SMCMiss(320)
	tr.Wake(1, 700, 15)
	tr.Scrub(800, 64)
	tr.Finish(1000)
}

// allKindsHistory drives one record of every event kind the tracer emits,
// interleaved with power transitions, and finishes the trace.
func allKindsHistory(tr *Tracer) {
	tr.PowerTransition(0, 2, 100)
	tr.Migration(0, 5, 9, "powerdown-drain", 100, 400)
	tr.PowerTransition(2, 1, 150)
	tr.SMCMiss(320)
	tr.Wake(2, 350, 15)
	tr.PowerTransition(2, 0, 350)
	tr.Scrub(400, 64)
	tr.WriteConflict(1, 410)
	tr.Fault(3, "correctable", 3, 500)
	tr.Storm(3, 64, 510)
	tr.RetireDeferred(3, "ecc-storm", 250, 520)
	tr.Retire(3, "ecc-storm", 770)
	tr.AttrSpan(5, 1, "migration-copy", 100, 400, 2.5)
	tr.AttrSpan(-1, -1, "fabric-stall", 600, 600, 0)
	tr.Migration(1, 7, 3, "hotness-swap", 650, 950)
	tr.LedgerCell(5, 1, "migration-copy", 300, 2.5, 1000)
	tr.LedgerCell(-1, -1, "baseline", 0, 1.25e-7, 1000)
	tr.Finish(1000)
}

// TestChromeTraceGolden: the Chrome trace converted from a stream holds
// the bytes the tracer's in-memory export wrote for the same history.
func TestChromeTraceGolden(t *testing.T) {
	for _, h := range goldenHistories {
		buf, _ := streamed(t, h.drive)
		checkGolden(t, h.prefix+".chrome.json", converted(t, buf.Bytes(), FormatChrome))
	}
}

// chromeDoc decodes a converted Chrome trace.
func chromeDoc(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

// TestChromeTraceRoundTripThroughSummary: the Chrome conversion carries the
// residency, migrations and rank names SummarizeJSONL reads from the
// stream it was converted from.
func TestChromeTraceRoundTripThroughSummary(t *testing.T) {
	jsonl := streamFixture(t).Bytes()
	want, err := SummarizeJSONL(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	got := newTraceSummary()
	for _, ev := range chromeDoc(t, converted(t, jsonl, FormatChrome)) {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid < migrationTidBase:
			got.RankNames[ev.Tid] = strings.TrimPrefix(ev.Args["name"].(string), "power ")
		case ev.Cat == "power":
			got.addResidency(ev.Tid, ev.Name, ev.Dur)
		case ev.Cat == "migration":
			got.MigrationsUs = append(got.MigrationsUs, ev.Dur)
			got.MigrationReasons[ev.Args["reason"].(string)]++
		case ev.Ph == "i":
			got.Points[ev.Name]++
		}
	}
	assertFixtureSummary(t, got)
	for rank, name := range want.RankNames {
		if got.RankNames[rank] != name {
			t.Fatalf("rank %d name = %q, want %q", rank, got.RankNames[rank], name)
		}
	}
	if d := DiffSummaries(want, got); len(d.Check(DiffTolerance{Share: 1e-12, LatFrac: 1e-12, EnergyFrac: 1e-12})) != 0 {
		t.Fatalf("chrome conversion drifted from its stream: %+v", d)
	}
	if strings.Join(got.States(), ",") != "mpsm,self-refresh,standby" {
		t.Fatalf("states = %v", got.States())
	}
}

func TestChromeTraceIsValidTraceEventJSON(t *testing.T) {
	phases := map[string]int{}
	for _, ev := range chromeDoc(t, converted(t, streamFixture(t).Bytes(), FormatChrome)) {
		phases[ev.Ph]++
		if ev.Ph == "i" && ev.Scope != "t" {
			t.Fatalf("instant event missing thread scope: %+v", ev)
		}
	}
	// 1 process + 4 rank threads + 2 migration threads = 7 metadata events.
	if phases["M"] != 7 {
		t.Fatalf("metadata events = %d, want 7", phases["M"])
	}
	// Spans: rank0 has 2, rank1 has 3, ranks 2,3 one each + 2 migrations.
	if phases["X"] != 9 {
		t.Fatalf("complete events = %d, want 9", phases["X"])
	}
	if phases["i"] != 3 {
		t.Fatalf("instant events = %d, want 3", phases["i"])
	}
}

func TestSummarizeRejectsGarbage(t *testing.T) {
	if _, err := SummarizeJSONL(strings.NewReader("not json\n{}\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := SummarizeJSONL(strings.NewReader(`{"rank":1}` + "\n")); err == nil {
		t.Fatal("expected error for a record with no type")
	}
}

func TestUsOf(t *testing.T) {
	if usOf(sim.Microsecond) != 1 {
		t.Fatalf("usOf(1us) = %v", usOf(sim.Microsecond))
	}
	if usOf(1500) != 1.5 {
		t.Fatalf("usOf(1500ns) = %v", usOf(1500))
	}
}
