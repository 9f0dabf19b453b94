// Package memctrl models the per-channel DRAM memory controllers inside the
// CXL device. It services cache-line requests against a bank/bus timing
// model (DDR4-like), charges rank power-state exit penalties, keeps per-rank
// access counters for DTL's hotness profiling, and accounts bandwidth for
// the active-power model.
//
// The model is a service-time calculator rather than a cycle-accurate
// pipeline: requests are submitted in nondecreasing arrival-time order per
// channel, and the controller computes each request's start and completion
// times from bank readiness, channel-bus occupancy, rank-switch penalties,
// and power-state exits. Migration traffic (segment copies/swaps issued by
// DTL) is modeled through the idle-bandwidth estimator: migration requests
// are only issued when the foreground request queue of the channel is empty
// (§4.2), so migrations consume exactly the bandwidth foreground traffic
// leaves unused.
package memctrl

import (
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// LineBytes is the request granularity (one cache line).
const LineBytes = 64

// Request is a single post-cache memory access presented to the controller.
type Request struct {
	Addr   dram.DPA
	Write  bool
	Arrive sim.Time
}

// Result describes the timing of a serviced request.
type Result struct {
	Start  sim.Time // when the command began issuing on the channel
	Done   sim.Time // when the data burst completed
	RowHit bool     // whether the access hit the open row
	// Woke reports that the target rank was in self-refresh and the access
	// brought it back to standby. WakeDelay cannot tell: a zero exit
	// latency wakes the rank with no delay.
	Woke bool
	// WakeDelay is the extra delay charged because the target rank had to
	// exit self-refresh (MPSM ranks hold no live data; an access to one is
	// a model bug and panics).
	WakeDelay sim.Time
	// Degraded is the extra repair/retry latency charged because the target
	// rank is in the failed state; zero on healthy ranks.
	Degraded sim.Time
}

// Latency reports the request's total latency.
func (r Result) Latency(arrive sim.Time) sim.Time { return r.Done - arrive }

// RankStats accumulates per-rank counters over a profiling window.
type RankStats struct {
	Accesses int64
	Bytes    int64
}

// Controller services requests for all channels of one device.
type Controller struct {
	dev   *dram.Device
	codec *dram.AddressCodec
	tim   dram.Timing
	// busHold is one burst's bus occupancy, max(TCCD, TBL); missLat is a
	// row miss's precharge-activate-CAS latency. Both are fixed by tim.
	busHold, missLat sim.Time

	busFree   []sim.Time // per channel: earliest next command slot
	lastRank  []int      // per channel: last rank that used the bus
	lastWrite []bool     // per channel: whether the last burst was a write
	// Per bank, flattened: bank b of global rank gr sits at gr*banks+b.
	banks    int
	bankFree []sim.Time // earliest time the bank accepts a command
	openRow  []int64    // row held open in the bank, -1 when precharged

	// Per-global-rank profiling counters, struct-of-arrays: DTL's hotness
	// profiler sweeps every rank's window count each profiling window, and
	// a dense []int64 walk touches half the cache lines the old
	// []RankStats layout did. Bytes are derived (accesses × LineBytes), so
	// only the access counts are kept hot.
	winAccesses  []int64    // per global rank, since last ResetWindow
	lifeAccesses []int64    // per global rank, total
	busyNs       []sim.Time // per channel: accumulated bus occupancy

	wakeups  int64 // accesses that found their rank in self-refresh
	stalls   int64 // accesses delayed by a refresh window
	degraded int64 // accesses that paid the failed-rank penalty

	// refreshEnabled blocks each standby rank for TRFC every TREFI, with
	// per-rank phase staggering (all-bank refresh). Self-refresh and MPSM
	// ranks refresh internally or not at all, so only standby ranks stall.
	refreshEnabled bool
}

// New builds a controller over the device.
func New(dev *dram.Device) *Controller {
	g := dev.Geometry()
	nRanks := g.TotalRanks()
	nBanks := nRanks * g.BanksPerRank
	tim := dev.Timing()
	c := &Controller{
		dev:          dev,
		codec:        dev.Codec(),
		tim:          tim,
		busHold:      max(tim.TCCD, tim.TBL),
		missLat:      tim.TRP + tim.TRCD + tim.TCL,
		busFree:      make([]sim.Time, g.Channels),
		lastRank:     make([]int, g.Channels),
		lastWrite:    make([]bool, g.Channels),
		banks:        g.BanksPerRank,
		bankFree:     make([]sim.Time, nBanks),
		openRow:      make([]int64, nBanks),
		winAccesses:  make([]int64, nRanks),
		lifeAccesses: make([]int64, nRanks),
		busyNs:       make([]sim.Time, g.Channels),
	}
	for ch := range c.lastRank {
		c.lastRank[ch] = -1
	}
	for b := range c.openRow {
		c.openRow[b] = -1
	}
	return c
}

// Device returns the underlying DRAM device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Access services one request and returns its timing. Accessing a rank in
// MPSM panics: MPSM does not retain data, so DTL must never route a live
// access there.
//
// The rank's state and readiness are read once, by the global rank the
// address decodes to. The timing terms that depend on the stream (rank
// switch, bus turnaround, row hit, bank occupancy, write recovery) are
// selects rather than branches: on a mixed stream each goes either way
// often, and a branch on it would mispredict.
func (c *Controller) Access(req Request) Result {
	ch, rk := c.codec.RankOf(req.Addr)
	gr := c.codec.GlobalRank(ch, rk)

	state, rankReady := c.dev.StateAndReadyGlobal(gr)
	var wake sim.Time
	woke := state == dram.SelfRefresh
	if state != dram.Standby {
		id := dram.RankID{Channel: ch, Rank: rk}
		if state == dram.MPSM {
			panic(fmt.Sprintf("memctrl: access to MPSM rank %v at dpa %d", id, req.Addr))
		}
		rankReady = c.dev.SetState(id, dram.Standby, req.Arrive)
		wake = rankReady - req.Arrive
		c.wakeups++
	}

	// The command-bus slot is claimed FR-FCFS style: a request stalled on
	// its bank or rank does not block the channel for younger requests to
	// other banks, so the bus reservation advances from the arrival point
	// while the request's own start also waits for bank/rank readiness.
	busSlot := max(req.Arrive, c.busFree[ch])

	bank := gr*c.banks + c.codec.BankOf(req.Addr)
	row := c.codec.RowOf(req.Addr)
	start := max(busSlot, rankReady, c.bankFree[bank])
	if c.refreshEnabled {
		start = c.afterRefresh(gr, start)
	}

	// Rank switch on the shared bus; lastRank is -1 before the channel's
	// first access, which pays none.
	last := c.lastRank[ch]
	start += c.tim.TRTR * sim.Time(b2i(last != rk)&b2i(last >= 0))
	// Data-bus turnaround between reads and writes (tWTR/tRTW). Each
	// select's operands are loaded before it: the compiler keeps a branch
	// around a load.
	turn, trtw := c.tim.TWTR, c.tim.TRTW
	if req.Write {
		turn = trtw
	}
	start += turn * sim.Time(b2i(c.lastWrite[ch] != req.Write))

	rowHit := c.openRow[bank] == row
	c.openRow[bank] = row
	accessLat, hitLat := c.missLat, c.tim.TCL
	if rowHit {
		accessLat = hitLat
	}
	// A failed rank still serves data but in degraded mode: every access
	// pays the repair/retry penalty until the DTL evacuates the rank.
	var degraded sim.Time
	if c.dev.FailedGlobal(gr) {
		degraded = c.tim.DegradedAccess
		accessLat += degraded
		c.degraded++
	}

	done := start + accessLat + c.tim.TBL

	c.busFree[ch] = busSlot + c.busHold
	c.busyNs[ch] += c.busHold
	c.lastRank[ch] = rk
	c.lastWrite[ch] = req.Write
	// Row hits stream CAS-to-CAS at TCCD; a row miss occupies the bank for
	// the full activate cycle, with tRAS as the turnaround floor. Writes
	// hold the bank through the write-recovery window before the row can
	// be precharged or re-CASed.
	bankBusyUntil, hitBusy := max(done, start+c.tim.TRAS), start+c.tim.TCCD
	if rowHit {
		bankBusyUntil = hitBusy
	}
	c.bankFree[bank] = bankBusyUntil + c.tim.TWR*sim.Time(b2i(req.Write))

	c.winAccesses[gr]++
	c.lifeAccesses[gr]++

	return Result{Start: start, Done: done, RowHit: rowHit, Woke: woke, WakeDelay: wake, Degraded: degraded}
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// EnableRefresh turns on periodic refresh stalls: each standby rank is
// unavailable for TRFC every TREFI, staggered by rank so refreshes do not
// align across the device.
func (c *Controller) EnableRefresh() { c.refreshEnabled = true }

// RefreshStalls reports how many requests were delayed by a refresh window.
func (c *Controller) RefreshStalls() int64 { return c.stalls }

// RegisterMetrics attaches the controller's counters and per-channel bus
// gauges to a telemetry registry under the "memctrl" prefix, so sampled time
// series include queue/bus behavior ("memctrl.ch0.busy_ns", ...).
func (c *Controller) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("memctrl.wakeups", func() float64 { return float64(c.Wakeups()) })
	reg.GaugeFunc("memctrl.refresh_stalls", func() float64 { return float64(c.RefreshStalls()) })
	reg.GaugeFunc("memctrl.degraded_accesses", func() float64 { return float64(c.DegradedAccesses()) })
	for ch := range c.busFree {
		ch := ch
		reg.GaugeFunc(fmt.Sprintf("memctrl.ch%d.busy_ns", ch), func() float64 {
			return float64(c.busyNs[ch])
		})
		reg.GaugeFunc(fmt.Sprintf("memctrl.ch%d.bus_free_at_ns", ch), func() float64 {
			return float64(c.busFree[ch])
		})
	}
	reg.GaugeFunc("memctrl.bytes_total", func() float64 {
		return float64(c.TotalBytes())
	})
}

// afterRefresh pushes t past the rank's refresh window if it falls inside
// one. Rank gr refreshes during [phase + k*TREFI, phase + k*TREFI + TRFC)
// where phase staggers ranks evenly across the interval.
func (c *Controller) afterRefresh(gr int, t sim.Time) sim.Time {
	trefi, trfc := c.tim.TREFI, c.tim.TRFC
	if trefi <= 0 || trfc <= 0 {
		return t
	}
	phase := trefi * sim.Time(gr) / sim.Time(len(c.winAccesses))
	offset := (t - phase) % trefi
	if offset < 0 {
		offset += trefi
	}
	if offset < trfc {
		c.stalls++
		return t + (trfc - offset)
	}
	return t
}

// WindowStats returns the per-rank counters accumulated since the last
// ResetWindow, indexed by global rank id.
func (c *Controller) WindowStats() []RankStats {
	out := make([]RankStats, len(c.winAccesses))
	for i, n := range c.winAccesses {
		out[i] = RankStats{Accesses: n, Bytes: n * LineBytes}
	}
	return out
}

// WindowAccesses reports the access count of a single rank this window.
func (c *Controller) WindowAccesses(id dram.RankID) int64 {
	return c.winAccesses[c.codec.GlobalRank(id.Channel, id.Rank)]
}

// ResetWindow clears the per-window counters (start of a profiling window).
func (c *Controller) ResetWindow() {
	for i := range c.winAccesses {
		c.winAccesses[i] = 0
	}
}

// LifetimeStats returns total per-rank counters, indexed by global rank id.
func (c *Controller) LifetimeStats() []RankStats {
	out := make([]RankStats, len(c.lifeAccesses))
	for i, n := range c.lifeAccesses {
		out[i] = RankStats{Accesses: n, Bytes: n * LineBytes}
	}
	return out
}

// TotalBytes reports all bytes transferred since construction.
func (c *Controller) TotalBytes() int64 {
	return sumI64(c.lifeAccesses) * LineBytes
}

// Wakeups reports how many accesses found their rank in self-refresh.
func (c *Controller) Wakeups() int64 { return c.wakeups }

// DegradedAccesses reports how many accesses hit a failed rank and paid the
// degraded-mode penalty.
func (c *Controller) DegradedAccesses() int64 { return c.degraded }

func sumI64(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}

// ChannelBusyUntil reports when the channel bus frees up; migration traffic
// may issue at or after this time.
func (c *Controller) ChannelBusyUntil(ch int) sim.Time { return c.busFree[ch] }

// ChannelUtilization reports the fraction of wall-clock time the channel bus
// was occupied over [0, now].
func (c *Controller) ChannelUtilization(ch int, now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	u := float64(c.busyNs[ch]) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}

// PeakChannelBandwidthGBs reports the channel's peak deliverable bandwidth
// implied by the timing model (one line per TCCD).
func (c *Controller) PeakChannelBandwidthGBs() float64 {
	return float64(LineBytes) / float64(c.busHold) // bytes per ns == GB/s
}

// IdleBandwidthGBs estimates the bandwidth left for background migration on
// channel ch over [0, now], per §4.2: migration issues only when the
// foreground queue is empty, so it harvests exactly the idle bus slots.
func (c *Controller) IdleBandwidthGBs(ch int, now sim.Time) float64 {
	return c.PeakChannelBandwidthGBs() * (1 - c.ChannelUtilization(ch, now))
}

// MigrationTime estimates the time to move bytes of segment data on channel
// ch using only idle bandwidth measured up to now. A fully saturated channel
// yields a floor of 5% of peak bandwidth (the scheduler still finds slack
// between foreground bursts).
func (c *Controller) MigrationTime(ch int, bytes int64, now sim.Time) sim.Time {
	bw := c.IdleBandwidthGBs(ch, now)
	if floor := 0.05 * c.PeakChannelBandwidthGBs(); bw < floor {
		bw = floor
	}
	return sim.Time(float64(bytes) / bw)
}
