package core

import (
	"bytes"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

func TestStatsIsThinViewOverRegistry(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 128*dram.MiB, 0)
	mustDealloc(t, d, 1, 1000)

	st := d.Stats()
	reg := d.Registry()
	checks := map[string]int64{
		"core.powerdown.events":            st.PowerDownEvents,
		"core.migration.segments_migrated": st.SegmentsMigrated,
		"core.migration.bytes":             st.BytesMigrated,
		"core.accesses":                    st.Accesses,
	}
	for name, want := range checks {
		got, ok := reg.Value(name)
		if !ok {
			t.Errorf("registry missing %q", name)
			continue
		}
		if int64(got) != want {
			t.Errorf("%s = %v in registry, %d via Stats()", name, got, want)
		}
	}
}

func TestStartTraceRecordsPowerDownTimeline(t *testing.T) {
	d := newTestDTL(t)
	tr := d.StartTrace(0)
	if d.Tracer() != tr {
		t.Fatal("StartTrace did not attach the tracer")
	}
	var stream bytes.Buffer
	tr.AttachStream(telemetry.NewTraceStream(&stream))

	mustAlloc(t, d, 1, 0, 128*dram.MiB, 0)
	mustDealloc(t, d, 1, 1000)
	tr.Finish(10_000)

	g := d.Config().Geometry
	perRank := make(map[int]int64)
	var sawMPSM bool
	for _, s := range tr.PowerSpans() {
		perRank[s.Rank] += int64(s.Duration())
		if s.State == dram.MPSM {
			sawMPSM = true
		}
	}
	for rank := 0; rank < g.TotalRanks(); rank++ {
		if perRank[rank] != 10_000 {
			t.Fatalf("rank %d spans sum to %d, want 10000", rank, perRank[rank])
		}
	}
	if !sawMPSM {
		t.Fatal("power-down left no MPSM span in the trace")
	}

	s, err := telemetry.SummarizeJSONL(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sawMigration := s.MigrationReasons["powerdown-drain"] > 0
	if d.Stats().SegmentsMigrated > 0 && !sawMigration {
		t.Fatal("segments migrated but no tagged migration event traced")
	}
}

func TestStartTraceSeedsMidRunStates(t *testing.T) {
	d := newTestDTL(t)
	// Power ranks down before tracing starts; the fresh tracer must begin
	// those ranks in MPSM, not standby.
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	mustDealloc(t, d, 1, 0)
	down := d.Device().RanksIn(dram.MPSM)
	if len(down) == 0 {
		t.Fatal("setup: no ranks powered down")
	}

	tr := d.StartTrace(5000)
	tr.Finish(6000)
	gr := d.codec.GlobalRank(down[0].Channel, down[0].Rank)
	var mpsm sim.Time
	for _, s := range tr.PowerSpans() {
		if s.Rank == gr && s.State == dram.MPSM {
			mpsm += s.Duration()
		}
	}
	if mpsm != 1000 {
		t.Fatalf("mid-run MPSM rank residency = %v, want full 1000 in MPSM", mpsm)
	}
}

func TestAttachTracerNilDetaches(t *testing.T) {
	d := newTestDTL(t)
	tr := d.StartTrace(0)
	d.AttachTracer(nil)
	if d.Tracer() != nil {
		t.Fatal("tracer still attached")
	}
	mustAlloc(t, d, 1, 0, 128*dram.MiB, 0)
	mustDealloc(t, d, 1, 1000)
	if len(tr.PowerSpans()) != 0 {
		t.Fatal("detached tracer still received transitions")
	}
}
