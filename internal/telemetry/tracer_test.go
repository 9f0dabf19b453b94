package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"dtl/internal/sim"
)

func testTracer(ranks int) *Tracer {
	return NewTracer(TracerConfig{Ranks: ranks, Channels: 2})
}

// streamRecords decodes a JSONL stream into one generic map per record.
func streamRecords(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var rec map[string]any
		if err := dec.Decode(&rec); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

func TestNilTracerEmitsAreNoOps(t *testing.T) {
	var tr *Tracer
	tr.PowerTransition(0, 1, 10)
	tr.Migration(0, 1, 2, "x", 0, 5)
	tr.SMCMiss(1)
	tr.Wake(0, 1, 2)
	tr.Scrub(1, 3)
	tr.WriteConflict(0, 1)
	tr.Retire(0, "manual", 1)
	tr.Fault(0, "correctable", 3, 1)
	tr.Storm(0, 64, 1)
	tr.RetireDeferred(0, "ecc-storm", 10, 1)
	tr.Finish(100)
	if tr.PowerSpans() != nil {
		t.Fatal("nil tracer should report nothing")
	}
}

// TestSpanPartitionInvariant is the core guarantee the Chrome export relies
// on: per-rank spans tile [0, horizon] exactly, whatever the transition
// history.
func TestSpanPartitionInvariant(t *testing.T) {
	tr := testTracer(4)
	tr.PowerTransition(0, 2, 100)
	tr.PowerTransition(0, 0, 250)
	tr.PowerTransition(1, 1, 40)
	tr.PowerTransition(0, 2, 900)
	// rank 2,3: no transitions at all
	const horizon = sim.Time(1000)
	tr.Finish(horizon)

	perRank := make(map[int]sim.Time)
	residency := make(map[[2]int]sim.Time) // by rank and state
	for _, s := range tr.PowerSpans() {
		if s.End < s.Start {
			t.Fatalf("negative span %+v", s)
		}
		perRank[s.Rank] += s.Duration()
		residency[[2]int{s.Rank, int(s.State)}] += s.Duration()
	}
	for rank := 0; rank < 4; rank++ {
		if perRank[rank] != horizon {
			t.Fatalf("rank %d spans sum to %v, want %v", rank, perRank[rank], horizon)
		}
	}

	if residency[[2]int{0, 0}] != 100+650 || residency[[2]int{0, 2}] != 150+100 {
		t.Fatalf("rank 0 residency = %v", residency)
	}
	if residency[[2]int{1, 0}] != 40 || residency[[2]int{1, 1}] != 960 {
		t.Fatalf("rank 1 residency = %v", residency)
	}
}

func TestSameStateTransitionIgnored(t *testing.T) {
	tr := testTracer(1)
	tr.PowerTransition(0, 0, 50) // already standby
	tr.Finish(100)
	spans := tr.PowerSpans()
	if len(spans) != 1 || spans[0].Start != 0 || spans[0].End != 100 {
		t.Fatalf("spans = %+v, want single [0,100] span", spans)
	}
}

func TestBackwardsTransitionPanics(t *testing.T) {
	tr := testTracer(1)
	tr.PowerTransition(0, 1, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time going backwards")
		}
	}()
	tr.PowerTransition(0, 2, 50)
}

func TestFinishIsIdempotent(t *testing.T) {
	tr := testTracer(2)
	tr.PowerTransition(0, 1, 10)
	tr.Finish(100)
	n := len(tr.PowerSpans())
	tr.Finish(500) // no-op
	if len(tr.PowerSpans()) != n || tr.End() != 100 {
		t.Fatal("second Finish must not add spans or move the horizon")
	}
}

func TestEventFieldsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := testTracer(2)
	tr.AttachStream(NewTraceStream(&buf))
	tr.Migration(1, 42, 99, "drain", 10, 35)
	tr.Wake(1, 50, 7)
	tr.Scrub(60, 128)
	evs := streamRecords(t, buf.Bytes())
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	m := evs[0]
	if m["type"] != "migration" || m["channel"] != 1.0 || m["src"] != 42.0 || m["dst"] != 99.0 ||
		m["reason"] != "drain" || m["at_ns"] != 10.0 || m["dur_ns"] != 25.0 {
		t.Fatalf("migration event = %v", m)
	}
	if w := evs[1]; w["type"] != "wake" || w["rank"] != 1.0 || w["dur_ns"] != 7.0 {
		t.Fatalf("wake event = %v", w)
	}
	if s := evs[2]; s["type"] != "scrub" || s["segments"] != 128.0 {
		t.Fatalf("scrub event = %v", s)
	}
}

func TestRankAndStateNames(t *testing.T) {
	tr := testTracer(4) // 2 channels: global rank = rank*2 + channel
	if got := tr.RankName(3); got != "ch1/rk1" {
		t.Fatalf("RankName(3) = %q", got)
	}
	if got := tr.StateName(1); got != "self-refresh" {
		t.Fatalf("StateName(1) = %q", got)
	}
	if got := tr.StateName(9); got != "state9" {
		t.Fatalf("StateName(9) = %q", got)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EvMigration: "migration", EvSMCMiss: "smc_miss", EvWake: "wake",
		EvScrub: "scrub", EvWriteConflict: "write_conflict", EvRetire: "retire",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
