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

// traceFixture builds a finished tracer holding the fixture history.
func traceFixture(t *testing.T) *Tracer {
	t.Helper()
	tr := testTracer(4, 0)
	fixtureHistory(tr)
	return tr
}

func TestWriteChromeTraceRequiresFinish(t *testing.T) {
	tr := testTracer(1, 0)
	if err := WriteChromeTrace(&bytes.Buffer{}, tr); err == nil {
		t.Fatal("expected error before Finish")
	}
	if err := WriteChromeTrace(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("expected error for nil tracer")
	}
}

func TestChromeTraceRoundTripThroughSummary(t *testing.T) {
	tr := traceFixture(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}

	s, err := SummarizeChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.RankNames) != 4 {
		t.Fatalf("rank names = %v", s.RankNames)
	}
	if s.RankNames[3] != "ch1/rk1" {
		t.Fatalf("rank 3 name = %q", s.RankNames[3])
	}
	// Partition invariant survives the round trip: every rank's residency
	// sums to the 1000 ns horizon (1 us in trace units).
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
	if len(s.MigrationsUs) != 2 || s.MigrationsUs[0] != 0.3 {
		t.Fatalf("migrations = %v", s.MigrationsUs)
	}
	if s.MigrationReasons["powerdown-drain"] != 1 || s.MigrationReasons["hotness-swap"] != 1 {
		t.Fatalf("reasons = %v", s.MigrationReasons)
	}
	if s.Points["smc_miss"] != 1 || s.Points["wake"] != 1 || s.Points["scrub"] != 1 {
		t.Fatalf("points = %v", s.Points)
	}
	states := s.States()
	if strings.Join(states, ",") != "mpsm,self-refresh,standby" {
		t.Fatalf("states = %v", states)
	}
}

func TestChromeTraceIsValidTraceEventJSON(t *testing.T) {
	tr := traceFixture(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "i" {
			if scope, _ := ev["s"].(string); scope != "t" {
				t.Fatalf("instant event missing thread scope: %v", ev)
			}
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
	if _, err := SummarizeChromeTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("expected parse error")
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
