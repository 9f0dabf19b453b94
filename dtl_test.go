package dtl

import (
	"testing"

	"dtl/internal/core"
	"dtl/internal/dram"
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
