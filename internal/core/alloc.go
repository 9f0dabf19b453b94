package core

import (
	"errors"
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// ErrOutOfCapacity is returned by AllocateVM when the device cannot satisfy
// the request: usable capacity (excluding retired and failed ranks) has
// shrunk below what the allocation needs. Callers at the API edge shed load
// on it instead of treating it as fatal — the graceful-degradation contract
// of the reliability loop.
var ErrOutOfCapacity = errors.New("core: out of memory")

// Allocation summarizes a VM placement.
type Allocation struct {
	VM    VMID
	Host  HostID
	Bytes int64 // rounded up to whole allocation units
	// Reactivated reports how many MPSM rank groups had to be woken to
	// satisfy the request.
	Reactivated int
	// Base HPAs, one per allocation unit, each spanning Config.AUBytes.
	AUBases []dram.HPA
}

// AllocateVM reserves memory for a VM: the request is rounded up to whole
// 2 GB allocation units; each AU's segments are spread evenly across
// channels, drawing from the free segment queue of the most-utilized rank
// per channel first (§4.3, "Balancing Segment Allocation"). If free
// capacity on active ranks is insufficient, powered-down rank groups are
// reactivated (MPSM exit), most recently powered-down first.
func (d *DTL) AllocateVM(vm VMID, host HostID, bytes int64, now sim.Time) (Allocation, error) {
	if _, exists := d.vms[vm]; exists {
		return Allocation{}, fmt.Errorf("core: vm %d already allocated", vm)
	}
	if host < 0 || int(host) >= d.cfg.MaxHosts {
		return Allocation{}, fmt.Errorf("core: host %d out of range [0,%d)", host, d.cfg.MaxHosts)
	}
	if bytes <= 0 {
		return Allocation{}, fmt.Errorf("core: allocation size must be positive, got %d", bytes)
	}
	d.mig.completeUpTo(now)

	aus := (bytes + d.cfg.AUBytes - 1) / d.cfg.AUBytes
	// Allocation is balanced, so EVERY channel must supply its share; a
	// global count would overlook per-channel shortfalls (e.g. after a
	// rank retirement made capacities asymmetric).
	perChannelNeed := aus * d.segsPerAU / int64(d.cfg.Geometry.Channels)

	// Wake rank groups until every channel's active free pool covers its
	// share of the request.
	reactivated := 0
	for {
		short := -1
		for ch := 0; ch < d.cfg.Geometry.Channels; ch++ {
			if d.activeFreeSegmentsOn(ch) < perChannelNeed {
				short = ch
				break
			}
		}
		if short < 0 {
			break
		}
		if !d.reactivateOne(vm, now) {
			return Allocation{}, fmt.Errorf("%w: channel %d needs %d segments, %d free and no powered-down groups",
				ErrOutOfCapacity, short, perChannelNeed, d.activeFreeSegmentsOn(short))
		}
		reactivated++
	}
	if d.auFree[host].len() < int(aus) {
		return Allocation{}, fmt.Errorf("core: host %d out of AU ids", host)
	}

	st := &vmState{host: host, aus: make([]int64, 0, aus)}
	alloc := Allocation{
		VM: vm, Host: host, Bytes: aus * d.cfg.AUBytes, Reactivated: reactivated,
		AUBases: make([]dram.HPA, 0, aus),
	}
	channels := d.cfg.Geometry.Channels
	perChannel := d.segsPerAU / int64(channels)
	for i := int64(0); i < aus; i++ {
		auID := d.auFree[host].popFront()
		st.aus = append(st.aus, auID)
		d.auOwner[int64(host)*d.totalAUs+auID] = int64(vm)
		alloc.AUBases = append(alloc.AUBases, d.auBase(host, auID))

		// Each channel contributes an equal number of segments; consecutive
		// host segments rotate across channels so every VM sees full
		// channel-level parallelism (§3.3, Fig. 6). The staging buffers are
		// scratch owned by the DTL, reused across AUs and calls.
		perCh := d.allocScratch
		for ch := 0; ch < channels; ch++ {
			perCh[ch] = d.takeSegments(ch, perCh[ch][:0], perChannel)
		}
		// Host segment off = j×channels + ch takes channel ch's j-th segment.
		hsn := d.hsnOf(host, auID, 0)
		for j := int64(0); j < perChannel; j++ {
			for ch := 0; ch < channels; ch++ {
				dsn := perCh[ch][j]
				d.segMap.set(hsn, dsn)
				d.revMap[dsn] = hsn
				hsn++
			}
		}
	}
	d.vms[vm] = st
	// The paper recomputes the number of active ranks at every 5-minute
	// interval from the usage snapshot (§5.1); running the power-down
	// check after allocation as well as deallocation matches that model
	// and keeps never-needed rank groups off from the start.
	d.maybePowerDown(now)
	return alloc, nil
}

// auBase returns the first host physical address of (host, au).
func (d *DTL) auBase(host HostID, au int64) dram.HPA {
	hsn := d.hsnOf(host, au, 0)
	return dram.HPA(int64(hsn) << d.codec.SegmentShift())
}

// activeFreeSegments counts free segments on usable (non-MPSM, non-failed)
// ranks.
func (d *DTL) activeFreeSegments() int64 {
	var n int64
	for gr := range d.free {
		if d.dev.FailedGlobal(gr) {
			continue
		}
		ch, rk := d.codec.SplitGlobalRank(gr)
		if d.dev.State(dram.RankID{Channel: ch, Rank: rk}) != dram.MPSM {
			n += int64(d.free[gr].len())
		}
	}
	return n
}

// activeFreeSegmentsOn counts free segments on channel ch's usable
// (non-MPSM, non-failed) ranks.
func (d *DTL) activeFreeSegmentsOn(ch int) int64 {
	var n int64
	for rk := 0; rk < d.cfg.Geometry.RanksPerChannel; rk++ {
		gr := d.codec.GlobalRank(ch, rk)
		if d.dev.FailedGlobal(gr) {
			continue
		}
		if d.dev.State(dram.RankID{Channel: ch, Rank: rk}) != dram.MPSM {
			n += int64(d.free[gr].len())
		}
	}
	return n
}

// takeSegments pops n free segments from channel ch into out, preferring the
// most-utilized active rank with free space ("for the rank with the highest
// capacity utilization in each channel, its free segment queue has the
// highest priority", §4.3). Standby ranks are preferred over self-refresh
// ranks so allocation does not needlessly wake cold ranks.
func (d *DTL) takeSegments(ch int, out []dram.DSN, n int64) []dram.DSN {
	taken := int64(0)
	for taken < n {
		gr := d.pickAllocRank(ch)
		if gr < 0 {
			panic(fmt.Sprintf("core: channel %d out of free segments with %d still needed (caller must check capacity)",
				ch, n-taken))
		}
		take := n - taken
		if avail := int64(d.free[gr].len()); take > avail {
			take = avail
		}
		out = d.free[gr].popFrontN(out, int(take))
		d.allocated[gr] += take
		taken += take
	}
	return out
}

// pickAllocRank selects the global rank on channel ch to allocate from:
// the non-MPSM, non-failed rank with free segments that has the highest
// utilization; standby beats self-refresh at equal utilization classes.
func (d *DTL) pickAllocRank(ch int) int {
	best := -1
	var bestKey [2]int64 // {standby preference, allocated count}
	for rk := 0; rk < d.cfg.Geometry.RanksPerChannel; rk++ {
		gr := d.codec.GlobalRank(ch, rk)
		if d.free[gr].len() == 0 || d.dev.FailedGlobal(gr) {
			continue
		}
		state := d.dev.State(dram.RankID{Channel: ch, Rank: rk})
		if state == dram.MPSM {
			continue
		}
		standby := int64(0)
		if state == dram.Standby {
			standby = 1
		}
		key := [2]int64{standby, d.allocated[gr]}
		if best < 0 || key[0] > bestKey[0] || (key[0] == bestKey[0] && key[1] > bestKey[1]) {
			best, bestKey = gr, key
		}
	}
	return best
}

// reactivateOne wakes the most recently powered-down rank group on behalf
// of vm's allocation, charging each rank's MPSM-exit wait to the ledger as
// demotion-wait (the cost of having demoted that rank in the first place).
func (d *DTL) reactivateOne(vm VMID, now sim.Time) bool {
	if len(d.poweredDown) == 0 {
		return false
	}
	group := d.poweredDown[len(d.poweredDown)-1]
	d.poweredDown = d.poweredDown[:len(d.poweredDown)-1]
	for _, id := range group {
		ready := d.dev.SetState(id, dram.Standby, now)
		if ready > now {
			d.chargeSpan(int64(vm), d.codec.GlobalRank(id.Channel, id.Rank),
				telemetry.CauseDemotionWait, now, ready, 0)
		}
	}
	d.st.reactivateEvents.Inc()
	return true
}

// DeallocateVM releases all memory of vm and then runs the rank-level
// power-down check of §3.3: if the unallocated capacity across active ranks
// exceeds one rank group, the least-utilized virtual rank group is drained
// and put into MPSM.
func (d *DTL) DeallocateVM(vm VMID, now sim.Time) error {
	st, ok := d.vms[vm]
	if !ok {
		return fmt.Errorf("core: vm %d not allocated", vm)
	}
	d.mig.completeUpTo(now)

	// Free segments in the order AllocateVM mapped them (AU by AU, offsets
	// ascending): it fixes the free-queue push order.
	for _, au := range st.aus {
		d.auOwner[int64(st.host)*d.totalAUs+au] = telemetry.SystemVM
		base := d.hsnOf(st.host, au, 0)
		d.smc.invalidateRange(base, d.segsPerAU)
		for hsn := base; hsn < base+dram.HSN(d.segsPerAU); hsn++ {
			dsn, ok := d.segMap.get(hsn)
			if !ok {
				return fmt.Errorf("core: vm %d hsn %d missing from segment mapping table", vm, hsn)
			}
			d.segMap.del(hsn)
			d.revMap[dsn] = dsnFree
			l := d.codec.DecodeDSN(dsn)
			gr := d.codec.GlobalRank(l.Channel, l.Rank)
			d.free[gr].push(dsn)
			d.allocated[gr]--
			d.hot.onSegmentFreed(dsn)
		}
	}
	d.auFree[st.host].pushAll(st.aus)
	delete(d.vms, vm)

	d.maybePowerDown(now)
	// Freed capacity may unblock a deferred (capacity-short) retirement.
	d.health.process(now)
	return nil
}

// LiveVMs reports the number of currently allocated VMs.
func (d *DTL) LiveVMs() int { return len(d.vms) }

// AllocatedBytes reports the total bytes currently reserved by VMs.
func (d *DTL) AllocatedBytes() int64 {
	return int64(d.segMap.len()) * d.cfg.Geometry.SegmentBytes
}

// VMAddresses returns the AU base addresses of a live VM, for driving
// traffic at it.
func (d *DTL) VMAddresses(vm VMID) ([]dram.HPA, error) {
	st, ok := d.vms[vm]
	if !ok {
		return nil, fmt.Errorf("core: vm %d not allocated", vm)
	}
	out := make([]dram.HPA, len(st.aus))
	for i, au := range st.aus {
		out[i] = d.auBase(st.host, au)
	}
	return out, nil
}

// HostAllocatedBytes reports the memory reserved by each host's VMs,
// indexed by HostID — the per-tenant view a pooled-memory operator bills on.
func (d *DTL) HostAllocatedBytes() []int64 {
	out := make([]int64, d.cfg.MaxHosts)
	for _, st := range d.vms {
		out[st.host] += int64(len(st.aus)) * d.cfg.AUBytes
	}
	return out
}

// leastUtilizedRank returns the active (non-MPSM, non-failed) rank of a
// channel with the fewest allocated segments, ties to the lower index, and
// how many ranks are active (rk is -1 when none is). Failed ranks are
// excluded so the power-down engine never picks one as a victim;
// retirement is their only exit. The (allocated, index) order is total, so
// the scan picks what the head of a sort by it would be.
func (d *DTL) leastUtilizedRank(ch int) (rk, n int) {
	rk = -1
	var least int64
	for r := 0; r < d.cfg.Geometry.RanksPerChannel; r++ {
		gr := d.codec.GlobalRank(ch, r)
		if d.dev.FailedGlobal(gr) || d.dev.State(dram.RankID{Channel: ch, Rank: r}) == dram.MPSM {
			continue
		}
		if n == 0 || d.allocated[gr] < least {
			rk, least = r, d.allocated[gr]
		}
		n++
	}
	return rk, n
}
