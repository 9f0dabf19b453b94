package memctrl

import (
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

func newCtrl() *Controller {
	dev := dram.MustDevice(dram.Default1TB(), dram.DefaultPowerModel(), dram.DefaultTiming())
	return New(dev)
}

func TestFirstAccessIsRowMiss(t *testing.T) {
	c := newCtrl()
	res := c.Access(Request{Addr: 0, Arrive: 0})
	if res.RowHit {
		t.Fatal("first access should miss the row buffer")
	}
	tm := dram.DefaultTiming()
	want := tm.TRP + tm.TRCD + tm.TCL + tm.TBL
	if res.Done != want {
		t.Fatalf("done = %v, want %v", res.Done, want)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c := newCtrl()
	first := c.Access(Request{Addr: 0, Arrive: 0})
	// Same line region (same bank, same row), arriving after the bank frees.
	second := c.Access(Request{Addr: 64, Arrive: first.Done + 100})
	if !second.RowHit {
		t.Fatal("second access to same row should hit")
	}
	if second.Latency(first.Done+100) >= first.Latency(0) {
		t.Fatalf("row hit latency %v not faster than miss %v",
			second.Latency(first.Done+100), first.Latency(0))
	}
}

func TestBankConflictSerializes(t *testing.T) {
	c := newCtrl()
	// Two different rows in the same bank: addresses separated by
	// banksPerRank * 4KiB map to the same bank, different row.
	stride := int64(16 * 4096)
	r1 := c.Access(Request{Addr: 0, Arrive: 0})
	r2 := c.Access(Request{Addr: dram.DPA(stride), Arrive: 0})
	if r2.RowHit {
		t.Fatal("different row should not row-hit")
	}
	if r2.Start < r1.Done-dram.DefaultTiming().TBL {
		t.Fatalf("bank conflict not serialized: r1 done %v, r2 start %v", r1.Done, r2.Start)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	c := newCtrl()
	r1 := c.Access(Request{Addr: 0, Arrive: 0})
	// Next 4KiB block: same channel/rank, different bank.
	r2 := c.Access(Request{Addr: 4096, Arrive: 0})
	if r2.Start >= r1.Done {
		t.Fatalf("bank-parallel requests serialized: r1 done %v, r2 start %v", r1.Done, r2.Start)
	}
}

func TestSelfRefreshWakeDelay(t *testing.T) {
	c := newCtrl()
	dev := c.Device()
	dev.SetState(dram.RankID{Channel: 0, Rank: 0}, dram.SelfRefresh, 0)
	res := c.Access(Request{Addr: 0, Arrive: 1000})
	if res.WakeDelay != dram.DefaultTiming().SelfRefreshExit {
		t.Fatalf("wake delay = %v, want %v", res.WakeDelay, dram.DefaultTiming().SelfRefreshExit)
	}
	if dev.State(dram.RankID{Channel: 0, Rank: 0}) != dram.Standby {
		t.Fatal("rank should be back in standby after access")
	}
	if c.Wakeups() != 1 {
		t.Fatalf("wakeups = %d, want 1", c.Wakeups())
	}
}

func TestMPSMAccessPanics(t *testing.T) {
	c := newCtrl()
	c.Device().SetState(dram.RankID{Channel: 0, Rank: 0}, dram.MPSM, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic accessing MPSM rank")
		}
	}()
	c.Access(Request{Addr: 0, Arrive: 100})
}

// TestWindowCounters checks the per-rank access counters.
func TestWindowCounters(t *testing.T) {
	c := newCtrl()
	codec := c.Device().Codec()
	// Three accesses to ch0/rk0, one to ch1/rk0.
	c.Access(Request{Addr: 0, Arrive: 0})
	c.Access(Request{Addr: 64, Arrive: 100})
	c.Access(Request{Addr: 128, Arrive: 200})
	chan1Seg := codec.DSNToDPA(codec.EncodeDSN(dram.Loc{Rank: 0, Channel: 1, Index: 0}))
	c.Access(Request{Addr: chan1Seg, Arrive: 300})

	if gr := codec.GlobalRank(0, 0); c.lifeAccesses[gr] != 3 {
		t.Fatalf("ch0/rk0 lifetime = %d accesses, want 3", c.lifeAccesses[gr])
	}
	if gr := codec.GlobalRank(1, 0); c.lifeAccesses[gr] != 1 {
		t.Fatalf("ch1/rk0 lifetime = %d accesses, want 1", c.lifeAccesses[gr])
	}
	if c.TotalBytes() != 4*LineBytes {
		t.Fatalf("total bytes = %d", c.TotalBytes())
	}
}

func TestChannelUtilizationAndIdleBandwidth(t *testing.T) {
	c := newCtrl()
	for i := int64(0); i < 100; i++ {
		c.Access(Request{Addr: dram.DPA(i * 64), Arrive: sim.Time(i * 5)})
	}
	now := sim.Time(10000)
	u := c.ChannelUtilization(0, now)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	peak := c.PeakChannelBandwidthGBs()
	idle := c.IdleBandwidthGBs(0, now)
	if idle >= peak || idle <= 0 {
		t.Fatalf("idle bw %v vs peak %v", idle, peak)
	}
	if got := c.ChannelUtilization(1, now); got != 0 {
		t.Fatalf("untouched channel utilization = %v", got)
	}
}

func TestMigrationTimeScalesWithBytes(t *testing.T) {
	c := newCtrl()
	t1 := c.MigrationTime(0, 2<<20, 1000)
	t2 := c.MigrationTime(0, 4<<20, 1000)
	if t2 <= t1 {
		t.Fatalf("migration time not increasing: %v vs %v", t1, t2)
	}
	// On an idle channel, 2MiB at ~12.8 GB/s should take ~164us.
	if t1 < 100*sim.Microsecond || t1 > 300*sim.Microsecond {
		t.Fatalf("idle-channel 2MiB migration = %v, want ~164us", t1)
	}
}

func TestMigrationTimeFloorUnderSaturation(t *testing.T) {
	c := newCtrl()
	// Saturate channel 0: back-to-back accesses with zero think time.
	var now sim.Time
	for i := int64(0); i < 2000; i++ {
		res := c.Access(Request{Addr: dram.DPA(i * 64), Arrive: now})
		now = res.Start
	}
	mt := c.MigrationTime(0, 2<<20, now)
	if mt <= 0 {
		t.Fatalf("migration time = %v", mt)
	}
	// Floor is 5% of peak: 2MiB / (0.05*12.8GB/s) ≈ 3.3ms; must be finite.
	if mt > 10*sim.Millisecond {
		t.Fatalf("migration under saturation too slow: %v", mt)
	}
}

func TestRankSwitchPenalty(t *testing.T) {
	c := newCtrl()
	codec := c.Device().Codec()
	g := c.Device().Geometry()
	rk1Addr := codec.DSNToDPA(codec.EncodeDSN(dram.Loc{Rank: 1, Channel: 0, Index: 0}))
	_ = g
	r1 := c.Access(Request{Addr: 0, Arrive: 0})
	// Give the bus time to clear so only the rank-switch penalty differs.
	r2 := c.Access(Request{Addr: rk1Addr, Arrive: r1.Done + 1000})
	r3 := c.Access(Request{Addr: rk1Addr + 4096, Arrive: r2.Done + 1000})
	lat2 := r2.Latency(r1.Done + 1000) // rank switch 0->1
	lat3 := r3.Latency(r2.Done + 1000) // same rank
	if lat2 != lat3+dram.DefaultTiming().TRTR {
		t.Fatalf("rank switch penalty: lat2=%v lat3=%v", lat2, lat3)
	}
}

func TestWriteRecoveryHoldsBank(t *testing.T) {
	tm := dram.DefaultTiming()
	// Same bank, different rows: the second access waits for the first's
	// bank occupancy, which is longer after a write (tWR).
	cR := newCtrl()
	r1 := cR.Access(Request{Addr: 0, Arrive: 0})
	r2 := cR.Access(Request{Addr: dram.DPA(16 * 4096), Arrive: 0})
	readGap := r2.Start - r1.Start

	cW := newCtrl()
	w1 := cW.Access(Request{Addr: 0, Write: true, Arrive: 0})
	w2 := cW.Access(Request{Addr: dram.DPA(16 * 4096), Write: true, Arrive: 0})
	writeGap := w2.Start - w1.Start

	if writeGap < readGap+tm.TWR {
		t.Fatalf("write recovery not charged: read gap %v, write gap %v", readGap, writeGap)
	}
}

func TestBusTurnaroundPenalty(t *testing.T) {
	tm := dram.DefaultTiming()
	// Alternate read/write to independent banks far apart in time so only
	// the turnaround term differs.
	c := newCtrl()
	c.Access(Request{Addr: 0, Write: false, Arrive: 0})
	// Same-direction access to another bank, long after.
	rSame := c.Access(Request{Addr: 4096, Write: false, Arrive: 10_000})
	if rSame.Start != 10_000 {
		t.Fatalf("same-direction access delayed: start %v", rSame.Start)
	}
	// Direction switch read -> write pays tRTW.
	rSwitch := c.Access(Request{Addr: 2 * 4096, Write: true, Arrive: 20_000})
	if rSwitch.Start != 20_000+tm.TRTW {
		t.Fatalf("read->write start %v, want %v", rSwitch.Start, 20_000+tm.TRTW)
	}
	// And write -> read pays tWTR.
	rBack := c.Access(Request{Addr: 3 * 4096, Write: false, Arrive: 30_000})
	if rBack.Start != 30_000+tm.TWTR {
		t.Fatalf("write->read start %v, want %v", rBack.Start, 30_000+tm.TWTR)
	}
}
