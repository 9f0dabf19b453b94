package core

import (
	"errors"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// wakeAllRanks puts every rank in standby and forgets the power-down
// grouping, so tests can place migrations on any rank without tripping the
// MPSM-holds-no-data invariant. (Hotness is disabled by default, so no
// profiling state goes stale.)
func wakeAllRanks(t *testing.T, d *DTL, now sim.Time) {
	t.Helper()
	d.poweredDown = nil
	g := d.cfg.Geometry
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.RanksPerChannel; rk++ {
			id := dram.RankID{Channel: ch, Rank: rk}
			if d.dev.State(id) != dram.Standby {
				d.dev.SetState(id, dram.Standby, now)
			}
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// liveDSNOn finds a mapped segment on the given channel and returns it with
// its rank.
func liveDSNOn(t *testing.T, d *DTL, ch int) (dram.DSN, dram.RankID) {
	t.Helper()
	for dsn, hsn := range d.revMap {
		if hsn == dsnFree {
			continue
		}
		loc := d.codec.DecodeDSN(dram.DSN(dsn))
		if loc.Channel == ch {
			return dram.DSN(dsn), dram.RankID{Channel: loc.Channel, Rank: loc.Rank}
		}
	}
	t.Fatalf("no live segment on channel %d", ch)
	return 0, dram.RankID{}
}

func TestRetireLastRankOfChannel(t *testing.T) {
	d := newTestDTL(t)
	for rk := 1; rk < 4; rk++ {
		if err := d.RetireRank(dram.RankID{Channel: 1, Rank: rk}, 0); err != nil {
			t.Fatal(err)
		}
	}
	err := d.RetireRank(dram.RankID{Channel: 1, Rank: 0}, 1000)
	if !errors.Is(err, ErrLastRank) {
		t.Fatalf("err = %v, want ErrLastRank", err)
	}
	// Other channels are unaffected: their ranks still retire.
	if err := d.RetireRank(dram.RankID{Channel: 0, Rank: 3}, 2000); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRetireWhileMigrationInFlightToVictim(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	wakeAllRanks(t, d, 0)

	// Start a copy onto a victim rank, then retire the victim mid-window:
	// the retirement drain must move the eagerly-remapped segment again and
	// the stale in-flight window must complete harmlessly.
	src, srcRank := liveDSNOn(t, d, 0)
	dst, _, ok := d.takeDrainTargetOn(0, srcRank.Rank)
	if !ok {
		t.Fatal("no drain target on channel 0")
	}
	start := sim.Time(1000)
	moveDecoded(d, src, dst, start, "test")
	if d.Migrator().Outstanding() == 0 {
		t.Fatal("setup: no in-flight migration")
	}
	dstLoc := d.codec.DecodeDSN(dst)
	victim := dram.RankID{Channel: dstLoc.Channel, Rank: dstLoc.Rank}

	mid := start + 10*sim.Microsecond
	if err := d.RetireRank(victim, mid); err != nil {
		t.Fatalf("retire mid-migration: %v", err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Drain the machinery well past every window; the mapping must stay
	// sound and the VM fully readable.
	d.Tick(start + sim.Second)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	addrs, _ := d.VMAddresses(1)
	for i, base := range addrs {
		if _, err := d.Access(base, false, start+2*sim.Second+sim.Time(i*1000)); err != nil {
			t.Fatalf("access after retire-under-migration: %v", err)
		}
	}
}

func TestMigrationVerifyFailureReroutes(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	wakeAllRanks(t, d, 0)

	src, srcRank := liveDSNOn(t, d, 0)
	dst, _, ok := d.takeDrainTargetOn(0, srcRank.Rank)
	if !ok {
		t.Fatal("no drain target on channel 0")
	}
	start := sim.Time(1000)
	moveDecoded(d, src, dst, start, "test")
	dstLoc := d.codec.DecodeDSN(dst)

	// The destination rank dies while the copy is in flight: verify-after-
	// copy must catch it and re-route the segment to a healthy rank.
	d.Device().FailRank(dram.RankID{Channel: dstLoc.Channel, Rank: dstLoc.Rank}, start+10)
	d.mig.completeUpTo(start + sim.Second)
	st := d.Migrator().Stats()
	if st.VerifyFailures != 1 || st.Reroutes != 1 || st.VerifyGiveups != 0 {
		t.Fatalf("stats = %+v, want 1 verify failure re-routed", st)
	}
	// The re-routed copy's destination is healthy.
	newDSN, _ := d.segMap.get(d.revMap[dst])
	if newDSN == dst {
		t.Fatal("segment still mapped to the failed rank")
	}
	nl := d.codec.DecodeDSN(newDSN)
	if d.Device().Failed(dram.RankID{Channel: nl.Channel, Rank: nl.Rank}) {
		t.Fatal("re-route chose a failed rank")
	}
	d.Tick(start + 2*sim.Second)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	addrs, _ := d.VMAddresses(1)
	for i, base := range addrs {
		if _, err := d.Access(base, false, start+3*sim.Second+sim.Time(i*1000)); err != nil {
			t.Fatalf("access after re-route: %v", err)
		}
	}
}

func TestMigrationVerifyGivesUpAtRetryLimit(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	wakeAllRanks(t, d, 0)

	src, srcRank := liveDSNOn(t, d, 0)
	dst, _, ok := d.takeDrainTargetOn(0, srcRank.Rank)
	if !ok {
		t.Fatal("no drain target on channel 0")
	}
	start := sim.Time(1000)
	moveDecoded(d, src, dst, start, "test")
	// Pretend this segment already exhausted its verify retries.
	w := d.mig.windows[0][len(d.mig.windows[0])-1]
	w.vretries = migrationRetryLimit

	dstLoc := d.codec.DecodeDSN(dst)
	d.Device().FailRank(dram.RankID{Channel: dstLoc.Channel, Rank: dstLoc.Rank}, start+10)
	d.mig.completeUpTo(start + sim.Second)
	st := d.Migrator().Stats()
	if st.VerifyFailures != 1 || st.VerifyGiveups != 1 || st.Reroutes != 0 {
		t.Fatalf("stats = %+v, want 1 verify give-up", st)
	}
	// The data stays where it is — readable in degraded mode.
	if got, _ := d.segMap.get(d.revMap[dst]); got != dst {
		t.Fatal("give-up still moved the segment")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityExhaustionThenPostRetireScrub(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, d.Config().Geometry.TotalBytes(), 0)
	victim := dram.RankID{Channel: 0, Rank: 0}
	if err := d.RetireRank(victim, 1000); !errors.Is(err, ErrRetireCapacity) {
		t.Fatalf("err = %v, want ErrRetireCapacity", err)
	}
	// Free capacity, retire for real, and seed latent errors on the now-
	// retired rank: a full patrol sweep must skip it (no data to scrub) and
	// never charge errors against it.
	mustDealloc(t, d, 1, 2000)
	mustAlloc(t, d, 2, 0, 64*dram.MiB, 3000)
	if err := d.RetireRank(victim, 4000); err != nil {
		t.Fatal(err)
	}
	retiredDSN := dsnOn(d, victim, 5)
	if err := d.Scrubber().InjectErrors(retiredDSN, 9); err != nil {
		t.Fatal(err)
	}
	total := int(d.Config().Geometry.TotalSegments())
	done, err := d.Scrubber().Run(5000, total)
	if err != nil {
		t.Fatal(err)
	}
	if done >= total {
		t.Fatalf("sweep scrubbed %d of %d segments; retired/powered-down ranks must be skipped", done, total)
	}
	if got := d.Device().CorrectableCount(victim); got != 0 {
		t.Fatalf("scrub charged %d errors to a retired rank", got)
	}
	if d.Device().LatentErrors(retiredDSN) != 9 {
		t.Fatal("latent errors on a retired rank should stay undiscovered")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
