package core

import (
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// maybePowerDown implements the rank-level power-down check of §3.3: run at
// every VM deallocation, it powers down as many virtual rank groups as the
// unallocated active capacity allows, draining the least-utilized rank of
// each channel into the remaining active ranks.
func (d *DTL) maybePowerDown(now sim.Time) {
	for d.tryPowerDownOne(now) {
	}
}

// PowerDownIdle runs the §3.3 power-down check outside an allocation event:
// as many virtual rank groups as the free-capacity reserve allows enter
// MPSM. A fresh device starts fully in Standby and normally settles at its
// first allocation or deallocation; rack composition calls this at build
// time so expanders that never receive a VM (the pack policy's cold pool)
// idle at their power floor instead of burning full standby power.
func (d *DTL) PowerDownIdle(now sim.Time) { d.maybePowerDown(now) }

// Park powers down every rank group of an idle expander, including the
// per-channel active floor and capacity reserve maybePowerDown preserves.
// Those guards exist so a live device can absorb allocations and drains
// without waking ranks on the critical path; an expander holding no VM at
// all needs neither, and a rack allocator that drained it wants the whole
// device at the MPSM floor. Parked groups land on the ordinary reactivation
// stack, so a later AllocateVM wakes them on demand (charged as
// demotion-wait, like any MPSM exit). Only valid on an idle device.
func (d *DTL) Park(now sim.Time) error {
	if n := len(d.vms); n != 0 {
		return fmt.Errorf("core: Park with %d live VMs", n)
	}
	for d.parkOne(now) {
	}
	return nil
}

// parkOne powers down one virtual rank group of an idle device, reporting
// whether it did. It is tryPowerDownOne minus the reserve and floor guards;
// with no live VMs there is nothing to drain, which the allocated counters
// re-check defensively.
func (d *DTL) parkOne(now sim.Time) bool {
	g := d.cfg.Geometry
	for ch := 0; ch < g.Channels; ch++ {
		if _, n := d.activeRanks(ch); n == 0 {
			return false
		}
	}
	victims := make([]dram.RankID, g.Channels)
	for ch := range victims {
		first, _ := d.activeRanks(ch)
		victims[ch] = dram.RankID{Channel: ch, Rank: first}
	}
	for _, id := range victims {
		if d.allocated[d.codec.GlobalRank(id.Channel, id.Rank)] != 0 {
			panic("core: parkOne found live segments on an idle device")
		}
	}
	d.powerDownGroup(victims, now)
	return true
}

// tryPowerDownOne powers down one virtual rank group if capacity allows,
// reporting whether it did.
func (d *DTL) tryPowerDownOne(now sim.Time) bool {
	g := d.cfg.Geometry
	rankGroupSegs := int64(g.Channels) * g.SegmentsPerRank()
	if d.activeFreeSegments() < rankGroupSegs*int64(d.cfg.ReserveRankGroups) {
		return false
	}
	// Keep at least one active rank group per channel.
	if _, n := d.activeRanks(0); n <= 1 {
		return false
	}

	// Virtual rank group (§4.3): per channel, the active rank with the
	// least allocated space is the victim; indices may differ per channel.
	// Every channel needs a victim that leaves another usable rank, and the
	// remaining active ranks must absorb every live segment of it
	// (guaranteed by the capacity check, but kept as a defensive re-check
	// per channel). The checks are pure, so the victims slice — which
	// poweredDown keeps — is built only once they all pass.
	for ch := 0; ch < g.Channels; ch++ {
		rk, n := d.leastUtilizedRank(ch)
		if n <= 1 || d.drainCapacityOn(ch, rk) < d.allocated[d.codec.GlobalRank(ch, rk)] {
			return false
		}
	}
	victims := make([]dram.RankID, g.Channels)
	for ch := range victims {
		rk, _ := d.leastUtilizedRank(ch)
		victims[ch] = dram.RankID{Channel: ch, Rank: rk}
	}

	// Drain each victim rank: copy live segments into the most-utilized
	// remaining ranks of the same channel (the allocator's priority rule),
	// preserving per-channel balance.
	for ch := 0; ch < g.Channels; ch++ {
		d.drainRank(victims[ch], now, "powerdown-drain")
	}

	d.powerDownGroup(victims, now)
	return true
}

// powerDownGroup puts a drained virtual rank group into MPSM and pushes it
// on the reactivation stack.
func (d *DTL) powerDownGroup(victims []dram.RankID, now sim.Time) {
	for _, id := range victims {
		// A victim in self-refresh must be treated as reactivated first;
		// MPSM entry below accounts the transition either way.
		if d.dev.State(id) == dram.SelfRefresh {
			d.hot.onSelfRefreshWake(id, now)
			d.st.selfRefreshExits.Inc()
		}
		d.dev.SetState(id, dram.MPSM, now)
		d.hot.onRankPoweredDown(id, now)
	}
	d.poweredDown = append(d.poweredDown, victims)
	d.st.powerDownEvents.Inc()
}

// activeRanks reports a channel's lowest non-MPSM rank index (-1 when
// there is none) and how many of its ranks are non-MPSM.
func (d *DTL) activeRanks(ch int) (first, n int) {
	first = -1
	for rk := 0; rk < d.cfg.Geometry.RanksPerChannel; rk++ {
		if d.dev.State(dram.RankID{Channel: ch, Rank: rk}) != dram.MPSM {
			if n == 0 {
				first = rk
			}
			n++
		}
	}
	return first, n
}

// drainRank copies every live segment off the victim rank into other active
// ranks of the same channel, updating the mapping tables and charging the
// migration engine.
func (d *DTL) drainRank(victim dram.RankID, now sim.Time, reason string) {
	ch := victim.Channel
	victimGR := d.codec.GlobalRank(ch, victim.Rank)

	// Collect live segments on the victim (into the channel's scratch).
	live := d.allocScratch[ch][:0]
	segs := d.cfg.Geometry.SegmentsPerRank()
	for idx := int64(0); idx < segs; idx++ {
		dsn := d.codec.EncodeDSN(dram.Loc{Rank: victim.Rank, Channel: ch, Index: idx})
		if d.revMap[dsn] != dsnFree {
			live = append(live, dsn)
		}
	}
	d.allocScratch[ch] = live

	// Each move raises the target's allocated count and lowers only the
	// victim's (which is excluded); no rank changes state or fails. The
	// target takeDrainTargetOn would pick therefore stays the strict
	// maximum until its free queue runs dry, so it is picked once per run
	// of moves rather than once per segment. No foreground access runs
	// between the moves, so every copy takes the same time.
	dur := d.mig.copyTime(ch, now)
	for i := 0; i < len(live); {
		gr := d.drainTargetRank(ch, victim.Rank)
		if gr < 0 {
			panic("core: no drain target available (capacity precondition violated)")
		}
		for q := &d.free[gr]; i < len(live) && q.len() > 0; i++ {
			d.allocated[gr]++
			d.moveSegment(ch, victimGR, gr, live[i], q.popFront(), now, dur, reason)
			d.st.segmentsMigrated.Inc()
		}
	}

	// The victim's free queue stays intact (its segments remain physically
	// there, just unallocated); allocated count must now be zero.
	if d.allocated[victimGR] != 0 {
		panic("core: drainRank left live segments behind")
	}
}

// takeDrainTargetOn pops a free segment on channel ch from the rank
// drainTargetRank picks and returns it with that global rank, reporting
// false when there is none. Power-down drains check capacity first
// (drainCapacityOn); the migration verify-after-copy path uses it to
// re-route around a destination rank that faulted mid-copy.
func (d *DTL) takeDrainTargetOn(ch, exclude int) (dram.DSN, int, bool) {
	gr := d.drainTargetRank(ch, exclude)
	if gr < 0 {
		return 0, -1, false
	}
	d.allocated[gr]++
	return d.free[gr].popFront(), gr, true
}

// drainTargetRank returns the global rank a drain on channel ch moves its
// next segment to: the most-utilized rank with free space that may take a
// drain (canTakeDrain), ties to the lower index, or -1 when none is
// eligible.
func (d *DTL) drainTargetRank(ch, exclude int) int {
	best := -1
	var bestAlloc int64 = -1
	for rk := 0; rk < d.cfg.Geometry.RanksPerChannel; rk++ {
		gr := d.codec.GlobalRank(ch, rk)
		if !d.canTakeDrain(ch, rk, exclude) || d.free[gr].len() == 0 {
			continue
		}
		if d.allocated[gr] > bestAlloc {
			best, bestAlloc = gr, d.allocated[gr]
		}
	}
	return best
}

// canTakeDrain reports whether rank rk of channel ch may take segments
// drained off rank exclude of the same channel: it is not exclude, not in
// MPSM and not failed. Retired ranks need no test of their own, since
// their free queues are empty (CheckInvariants). drainCapacityOn and
// drainTargetRank both use it, so a drain never runs out of the room its
// capacity check counted.
func (d *DTL) canTakeDrain(ch, rk, exclude int) bool {
	return rk != exclude &&
		d.dev.State(dram.RankID{Channel: ch, Rank: rk}) != dram.MPSM &&
		!d.dev.FailedGlobal(d.codec.GlobalRank(ch, rk))
}

// moveSegment relocates the live segment at src into the free slot dst:
// mapping tables are updated, the SMC entry invalidated, the source slot
// returned to its free queue, and the copy charged to the migration engine.
// Both slots lie on channel ch; srcGR and dstGR are their global ranks and
// dur the copy time (migrator.copyTime), all known to the caller.
func (d *DTL) moveSegment(ch, srcGR, dstGR int, src, dst dram.DSN, now, dur sim.Time, reason string) {
	hsn := d.revMap[src]
	if hsn == dsnFree {
		panic("core: moveSegment on free source")
	}
	if d.revMap[dst] != dsnFree {
		panic("core: moveSegment into live destination")
	}
	d.segMap.set(hsn, dst)
	d.revMap[dst] = hsn
	d.revMap[src] = dsnFree
	d.smc.invalidate(hsn)

	d.free[srcGR].push(src)
	d.allocated[srcGR]--

	d.hot.onSegmentMoved(src, dst)
	d.mig.enqueueCopy(ch, dstGR, src, dst, now, dur, reason)
	d.st.bytesMigrated.Add(d.cfg.Geometry.SegmentBytes)
}

// PoweredDownGroups reports the number of rank groups currently in MPSM.
func (d *DTL) PoweredDownGroups() int { return len(d.poweredDown) }

// ActiveRanksPerChannel reports the number of non-MPSM ranks on channel 0
// (identical across channels by construction).
func (d *DTL) ActiveRanksPerChannel() int {
	_, n := d.activeRanks(0)
	return n
}
