package core

import (
	"errors"
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// Rank retirement is the reliability extension the paper's conclusion points
// at: because DTL owns the HPA→DPA mapping, a rank that starts reporting
// correctable-error storms (or fails a patrol scrub) can be drained and
// taken offline transparently, exactly like a power-down victim — except it
// never comes back. The host keeps its physical addresses; the device keeps
// running with reduced spare capacity.

// ErrRetireCapacity is returned when the surviving ranks of some channel
// cannot absorb the retiring rank's live segments. The HealthMonitor treats
// it as a deferred retirement and retries with backoff.
var ErrRetireCapacity = errors.New("core: insufficient free capacity to retire rank")

// ErrLastRank is returned when retirement would take the last non-retired
// rank of a channel offline: the channel's live data would have nowhere to
// go, so the rank must keep serving (in degraded mode if it has failed).
var ErrLastRank = errors.New("core: cannot retire the last rank of a channel")

// RetireRank drains every live segment off the given rank into the other
// active ranks of the same channel, removes the rank's capacity from the
// allocator permanently, and powers the rank down. Unlike power-down
// victims, retired ranks are never reactivated: AllocateVM will not draw
// from them and reactivation skips them.
func (d *DTL) RetireRank(id dram.RankID, now sim.Time) error {
	return d.retireRank(id, now, "manual")
}

// retireRank is RetireRank with a cause tag for telemetry ("manual",
// "ecc-storm", "uncorrectable", "wake-fault", "rank-failure").
func (d *DTL) retireRank(id dram.RankID, now sim.Time, cause string) error {
	g := d.cfg.Geometry
	if id.Channel < 0 || id.Channel >= g.Channels || id.Rank < 0 || id.Rank >= g.RanksPerChannel {
		return fmt.Errorf("core: rank %v out of range", id)
	}
	gr := d.codec.GlobalRank(id.Channel, id.Rank)
	if d.retired == nil {
		d.retired = make(map[int]bool)
	}
	if d.retired[gr] {
		return fmt.Errorf("core: rank %v already retired", id)
	}
	// The last non-retired rank of a channel can never be retired: its live
	// segments would have nowhere to go and future allocations need the
	// channel (MPSM ranks count as survivors — they can be reactivated).
	survivors := 0
	for rk := 0; rk < g.RanksPerChannel; rk++ {
		if rk != id.Rank && !d.retired[d.codec.GlobalRank(id.Channel, rk)] {
			survivors++
		}
	}
	if survivors == 0 {
		return fmt.Errorf("%w (ch%d)", ErrLastRank, id.Channel)
	}
	d.mig.completeUpTo(now)

	// If the rank is in MPSM it holds no data; wake it logically so the
	// drain bookkeeping below applies uniformly, then drop its capacity.
	if d.dev.State(id) == dram.MPSM {
		d.removeFromPoweredDown(id)
		d.dev.SetState(id, dram.Standby, now)
	}
	if d.dev.State(id) == dram.SelfRefresh {
		d.hot.onSelfRefreshWake(id, now)
		d.st.selfRefreshExits.Inc()
		d.dev.SetState(id, dram.Standby, now)
	}

	// Capacity check: the other active, non-retired, non-failed ranks of
	// this channel must absorb the live segments.
	live := d.allocated[gr]
	if d.drainCapacityOn(id.Channel, id.Rank) < live {
		// Try waking powered-down groups to make room.
		for d.drainCapacityOn(id.Channel, id.Rank) < live && d.reactivateOne(VMID(telemetry.SystemVM), now) {
		}
		if d.drainCapacityOn(id.Channel, id.Rank) < live {
			return ErrRetireCapacity
		}
	}

	d.drainRank(id, now, "retire")

	// Remove the rank's free capacity from the allocator and power it off
	// for good.
	d.free[gr].reset()
	d.retired[gr] = true
	d.dev.SetState(id, dram.MPSM, now)
	d.hot.onRankPoweredDown(id, now)
	d.st.ranksRetired.Inc()
	d.tracer.Retire(gr, cause, now)
	// Capacity woken for the drain that is no longer needed can power back
	// down immediately.
	d.maybePowerDown(now)
	return nil
}

// drainCapacityOn sums the free segments of channel ch's ranks that may
// take segments drained off rank exclude (canTakeDrain).
func (d *DTL) drainCapacityOn(ch, exclude int) int64 {
	var free int64
	for rk := 0; rk < d.cfg.Geometry.RanksPerChannel; rk++ {
		if d.canTakeDrain(ch, rk, exclude) {
			free += int64(d.free[d.codec.GlobalRank(ch, rk)].len())
		}
	}
	return free
}

// removeFromPoweredDown drops id from any virtual rank group so a later
// reactivation does not resurrect a retired rank. The group's remaining
// members stay powered down.
func (d *DTL) removeFromPoweredDown(id dram.RankID) {
	for gi, group := range d.poweredDown {
		for mi, member := range group {
			if member == id {
				d.poweredDown[gi] = append(group[:mi], group[mi+1:]...)
				if len(d.poweredDown[gi]) == 0 {
					d.poweredDown = append(d.poweredDown[:gi], d.poweredDown[gi+1:]...)
				}
				return
			}
		}
	}
}

// RetiredRanks lists retired ranks in (rank, channel) order.
func (d *DTL) RetiredRanks() []dram.RankID {
	var out []dram.RankID
	g := d.cfg.Geometry
	for rk := 0; rk < g.RanksPerChannel; rk++ {
		for ch := 0; ch < g.Channels; ch++ {
			if d.retired[d.codec.GlobalRank(ch, rk)] {
				out = append(out, dram.RankID{Channel: ch, Rank: rk})
			}
		}
	}
	return out
}

// UsableBytes reports device capacity minus retired ranks.
func (d *DTL) UsableBytes() int64 {
	return d.cfg.Geometry.TotalBytes() - int64(len(d.retired))*d.cfg.Geometry.RankBytes
}
