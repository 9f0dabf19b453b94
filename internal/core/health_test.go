package core

import (
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// dsnOn returns the idx-th segment slot of a rank.
func dsnOn(d *DTL, id dram.RankID, idx int64) dram.DSN {
	return d.codec.EncodeDSN(dram.Loc{Rank: id.Rank, Channel: id.Channel, Index: idx})
}

func healthCounter(t *testing.T, d *DTL, name string) float64 {
	t.Helper()
	v, ok := d.Registry().Value("core.health." + name)
	if !ok {
		t.Fatalf("metric core.health.%s not registered", name)
	}
	return v
}

// liveRankOn finds a rank holding live data on the given channel.
func liveRankOn(t *testing.T, d *DTL, ch int) dram.RankID {
	t.Helper()
	for gr, n := range d.allocated {
		if n > 0 {
			c, rk := d.codec.SplitGlobalRank(gr)
			if c == ch {
				return dram.RankID{Channel: c, Rank: rk}
			}
		}
	}
	t.Fatalf("no live rank on channel %d", ch)
	return dram.RankID{}
}

func TestStormTriggersAutoRetire(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	victim := liveRankOn(t, d, 0)

	// One burst at the leaky-bucket threshold declares a storm and queues
	// the retirement; the hook itself must not mutate mapping state.
	thr := int(stormThreshold)
	if err := d.Device().RaiseCorrectable(dsnOn(d, victim, 0), thr, 1000); err != nil {
		t.Fatal(err)
	}
	if got := healthCounter(t, d, "storms"); got != 1 {
		t.Fatalf("storms = %v, want 1", got)
	}
	if d.Health().PendingRetires() != 1 {
		t.Fatalf("pending = %d, want 1", d.Health().PendingRetires())
	}
	if len(d.RetiredRanks()) != 0 {
		t.Fatal("hook retired the rank synchronously")
	}

	// The next tick applies it.
	d.Tick(2000)
	if got := d.RetiredRanks(); len(got) != 1 || got[0] != victim {
		t.Fatalf("retired = %v, want [%v]", got, victim)
	}
	if got := healthCounter(t, d, "auto_retires"); got != 1 {
		t.Fatalf("auto_retires = %v, want 1", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The VM's data survived the drain.
	addrs, _ := d.VMAddresses(1)
	for i, base := range addrs {
		if _, err := d.Access(base, false, sim.Time(3000+i*1000)); err != nil {
			t.Fatalf("access after auto-retire: %v", err)
		}
	}
}

func TestBackgroundCERateNeverStorms(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	id := liveRankOn(t, d, 0)
	// 10 errors/s against a 16/s leak: the bucket never fills.
	for i := 0; i < 50; i++ {
		now := sim.Time(i) * 100 * sim.Millisecond
		if err := d.Device().RaiseCorrectable(dsnOn(d, id, 0), 1, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := healthCounter(t, d, "storms"); got != 0 {
		t.Fatalf("storms = %v, want 0 at background rate", got)
	}
	if d.Health().PendingRetires() != 0 {
		t.Fatal("background errors queued a retirement")
	}
}

func TestBucketLeakOverTime(t *testing.T) {
	d := newTestDTL(t)
	id := dram.RankID{Channel: 0, Rank: 0}
	if err := d.Device().RaiseCorrectable(dsnOn(d, id, 0), 32, 0); err != nil {
		t.Fatal(err)
	}
	if lvl := d.Health().BucketLevel(id, 0); lvl != 32 {
		t.Fatalf("bucket at t=0: %v, want 32", lvl)
	}
	// leakPerSecond is 16: half drains after 1s, empty by 2s.
	if lvl := d.Health().BucketLevel(id, sim.Second); lvl != 16 {
		t.Fatalf("bucket at t=1s: %v, want 16", lvl)
	}
	if lvl := d.Health().BucketLevel(id, 3*sim.Second); lvl != 0 {
		t.Fatalf("bucket at t=3s: %v, want 0", lvl)
	}
}

func TestStormQueueDedup(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	id := liveRankOn(t, d, 0)
	dsn := dsnOn(d, id, 0)
	// Two storming bursts before the tick: one queued retirement, and the
	// second burst must not double-count a storm on an already-queued rank.
	if err := d.Device().RaiseCorrectable(dsn, 100, 1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Device().RaiseCorrectable(dsn, 100, 1100); err != nil {
		t.Fatal(err)
	}
	if got := healthCounter(t, d, "storms"); got != 1 {
		t.Fatalf("storms = %v, want 1", got)
	}
	if d.Health().PendingRetires() != 1 {
		t.Fatalf("pending = %d, want 1", d.Health().PendingRetires())
	}
	d.Tick(2000)
	// Faults on the retired rank are counted but never re-queued.
	if err := d.Device().RaiseCorrectable(dsn, 100, 3000); err != nil {
		t.Fatal(err)
	}
	if d.Health().PendingRetires() != 0 {
		t.Fatal("fault on a retired rank re-queued a retirement")
	}
}

func TestUncorrectableQueuesRetire(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	id := liveRankOn(t, d, 1)
	if err := d.Device().RaiseUncorrectable(dsnOn(d, id, 0), 1000); err != nil {
		t.Fatal(err)
	}
	if d.Health().PendingRetires() != 1 {
		t.Fatal("uncorrectable error did not queue a retirement")
	}
	d.Tick(2000)
	if got := d.RetiredRanks(); len(got) != 1 || got[0] != id {
		t.Fatalf("retired = %v, want [%v]", got, id)
	}
}

func TestDeferredRetirementRetriesAfterDealloc(t *testing.T) {
	d := newTestDTL(t)
	// A full device cannot absorb a drain: the retirement defers with
	// backoff instead of failing.
	mustAlloc(t, d, 1, 0, d.Config().Geometry.TotalBytes(), 0)
	id := dram.RankID{Channel: 0, Rank: 0}
	if err := d.Device().RaiseUncorrectable(dsnOn(d, id, 0), 1000); err != nil {
		t.Fatal(err)
	}
	d.Tick(2000)
	if got := healthCounter(t, d, "retires_deferred"); got != 1 {
		t.Fatalf("retires_deferred = %v, want 1", got)
	}
	if len(d.RetiredRanks()) != 0 {
		t.Fatal("retirement applied despite a full device")
	}
	if d.Health().PendingRetires() != 1 {
		t.Fatal("deferred retirement fell out of the queue")
	}
	// Before the backoff elapses nothing happens.
	d.Tick(2000 + 5*sim.Millisecond)
	if healthCounter(t, d, "retire_retries") != 0 {
		t.Fatal("retry fired inside the backoff window")
	}
	// Freeing capacity past the backoff unblocks it: DeallocateVM itself
	// reprocesses the queue.
	if err := d.DeallocateVM(1, 2000+20*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := d.RetiredRanks(); len(got) != 1 || got[0] != id {
		t.Fatalf("retired = %v, want [%v]", got, id)
	}
	if healthCounter(t, d, "retire_retries") != 1 || healthCounter(t, d, "auto_retires") != 1 {
		t.Fatalf("retries = %v, auto_retires = %v, want 1 and 1",
			healthCounter(t, d, "retire_retries"), healthCounter(t, d, "auto_retires"))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWakeFaultThresholdRetires(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	id := liveRankOn(t, d, 2)
	d.Device().SetWakeFault(id, 50*sim.Microsecond)

	// Cycle the rank through self-refresh; every abnormal exit raises a
	// wake fault. Transitions are spaced beyond the charged penalties.
	thr := wakeFaultThreshold
	now := sim.Millisecond
	for i := int64(0); i < thr; i++ {
		d.Device().SetState(id, dram.SelfRefresh, now)
		now += sim.Millisecond
		d.Device().SetState(id, dram.Standby, now)
		now += sim.Millisecond
	}
	if d.Health().PendingRetires() != 1 {
		t.Fatalf("pending = %d after %d wake faults, want 1", d.Health().PendingRetires(), thr)
	}
	d.Tick(now)
	if got := d.RetiredRanks(); len(got) != 1 || got[0] != id {
		t.Fatalf("retired = %v, want [%v]", got, id)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLastRankRetirementAbandoned(t *testing.T) {
	d := newTestDTL(t)
	// Retire three of channel 2's four ranks, then kill the survivor: the
	// health monitor must abandon the retirement (ErrLastRank) and leave
	// the rank serving in degraded mode.
	for rk := 1; rk < 4; rk++ {
		if err := d.RetireRank(dram.RankID{Channel: 2, Rank: rk}, 0); err != nil {
			t.Fatal(err)
		}
	}
	last := dram.RankID{Channel: 2, Rank: 0}
	d.Device().FailRank(last, 1000)
	if d.Health().PendingRetires() != 1 {
		t.Fatal("rank failure did not queue a retirement")
	}
	d.Tick(2000)
	if got := healthCounter(t, d, "retires_abandoned"); got != 1 {
		t.Fatalf("retires_abandoned = %v, want 1", got)
	}
	if d.Health().PendingRetires() != 0 {
		t.Fatal("abandoned retirement still queued")
	}
	if len(d.RetiredRanks()) != 3 {
		t.Fatalf("retired = %v, want exactly the 3 manual retirements", d.RetiredRanks())
	}
	if !d.Device().Failed(last) {
		t.Fatal("failed rank lost its failure mark")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
