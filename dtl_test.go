package dtl

import (
	"bytes"
	"testing"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

func smallGeometry() Geometry {
	return Geometry{
		Channels:        4,
		RanksPerChannel: 4,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       64 * dram.MiB,
	}
}

func openSmall(t *testing.T) *Device {
	t.Helper()
	cfg := core.DefaultConfig(smallGeometry())
	cfg.AUBytes = 16 * dram.MiB
	dev, err := Open(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestOpenDefaults(t *testing.T) {
	dev, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	if g.TotalBytes() != dram.TiB {
		t.Fatalf("default capacity = %d", g.TotalBytes())
	}
	snap := dev.PowerSnapshot(0)
	if snap.RanksByState[Standby] != 32 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap.String() == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestOpenWithGeometry(t *testing.T) {
	dev, err := Open(WithGeometry(Geometry4TB()), WithLinkLatency(NativeDRAMLatency))
	if err != nil {
		t.Fatal(err)
	}
	if dev.Geometry().TotalBytes() != 4*dram.TiB {
		t.Fatal("geometry option ignored")
	}
}

func TestOpenRejectsBadGeometry(t *testing.T) {
	if _, err := Open(WithGeometry(Geometry{})); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestEndToEndLifecycle(t *testing.T) {
	dev := openSmall(t)
	a, err := dev.AllocateVM(1, 0, 48*dram.MiB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dev.LiveVMs() != 1 || dev.AllocatedBytes() != 48*dram.MiB {
		t.Fatal("allocation not reflected")
	}
	now := Time(1000)
	for _, base := range a.AUBases {
		if _, err := dev.Read(base, now); err != nil {
			t.Fatal(err)
		}
		now += 1000
		if _, err := dev.Write(base+64, now); err != nil {
			t.Fatal(err)
		}
		now += 1000
	}
	if dev.MeanLatency() <= float64(CXLMemoryLatency) {
		t.Fatalf("mean latency %.1f below link latency", dev.MeanLatency())
	}
	if err := dev.DeallocateVM(1, now); err != nil {
		t.Fatal(err)
	}
	snap := dev.PowerSnapshot(now)
	if snap.PoweredDownGroups == 0 {
		t.Fatal("no rank groups powered down after full deallocation")
	}
	rep := dev.EnergyReport(now + 1000)
	if rep.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if rep.MPSMEnergy <= 0 {
		t.Fatal("no MPSM energy accounted after power-down")
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestModelAccessors(t *testing.T) {
	dev := openSmall(t)
	sizes := dev.MetadataSizes()
	if sizes.TotalSRAM() <= 0 || sizes.TotalDRAM() <= 0 {
		t.Fatal("metadata sizes empty")
	}
	est := dev.ControllerEstimate(7)
	if est.TotalPowerMW <= 0 || est.TotalAreaMM2 <= 0 {
		t.Fatal("controller estimate empty")
	}
	m := dev.AMAT()
	if m.CXLMemLat != CXLMemoryLatency {
		t.Fatal("AMAT link latency wrong")
	}
	if dev.SMCStats().L1Hits != 0 {
		t.Fatal("fresh device has SMC hits")
	}
	if dev.Core() == nil {
		t.Fatal("core accessor nil")
	}
}

// TestStopTraceDetachesStream records a VM lifecycle into a trace stream,
// stops tracing, and requires a second lifecycle (power-downs, drains,
// reactivations, SMC misses) to reach neither the old stream nor the
// stopped tracer. Restarting the trace with a fresh stream records the same
// lifecycle again, so the silence is StopTrace's doing.
func TestStopTraceDetachesStream(t *testing.T) {
	dev := openSmall(t)
	now := Time(0)
	lifecycle := func() {
		t.Helper()
		for _, vm := range []VMID{1, 2, 3} {
			now += Time(sim.Millisecond)
			a, err := dev.AllocateVM(vm, 0, int64(vm)*48*dram.MiB, now)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range a.AUBases {
				now += 1000
				if _, err := dev.Read(base, now); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, vm := range []VMID{2, 1, 3} {
			now += Time(sim.Millisecond)
			if err := dev.DeallocateVM(vm, now); err != nil {
				t.Fatal(err)
			}
		}
	}

	var first bytes.Buffer
	tr := dev.StartTrace(now)
	stream := telemetry.NewTraceStream(&first)
	tr.AttachStream(stream)
	lifecycle()
	if stream.Rows() == 0 {
		t.Fatal("traced lifecycle wrote no records")
	}
	rows, size := stream.Rows(), first.Len()

	dev.StopTrace()
	lifecycle()
	if stream.Rows() != rows || first.Len() != size {
		t.Fatalf("after StopTrace the stream grew from %d records (%d bytes) to %d (%d bytes)",
			rows, size, stream.Rows(), first.Len())
	}

	var second bytes.Buffer
	again := telemetry.NewTraceStream(&second)
	dev.StartTrace(now).AttachStream(again)
	lifecycle()
	if again.Rows() == 0 {
		t.Fatal("restarted trace recorded nothing: the lifecycle emits no events")
	}
	if stream.Rows() != rows {
		t.Fatalf("restarted trace wrote %d records to the stopped stream", stream.Rows()-rows)
	}
}
