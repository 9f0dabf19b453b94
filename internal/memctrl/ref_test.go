package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/trace"
)

// refController is the controller model written one branch per case: a
// copy of Controller.Access with its state, timing and counters, kept as
// the reference TestControllerMatchesReference checks the controller
// against access by access.
type refController struct {
	dev   *dram.Device
	codec *dram.AddressCodec
	tim   dram.Timing

	busFree   []sim.Time
	lastRank  []int
	lastWrite []bool
	banks     int
	bankFree  []sim.Time
	openRow   []int64

	winAccesses  []int64
	lifeAccesses []int64
	busyNs       []sim.Time

	wakeups  int64
	stalls   int64
	degraded int64

	refreshEnabled bool
}

func newRefController(dev *dram.Device) *refController {
	g := dev.Geometry()
	nRanks := g.TotalRanks()
	nBanks := nRanks * g.BanksPerRank
	c := &refController{
		dev:          dev,
		codec:        dev.Codec(),
		tim:          dev.Timing(),
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

func (c *refController) Access(req Request) Result {
	ch, rk := c.codec.RankOf(req.Addr)
	id := dram.RankID{Channel: ch, Rank: rk}
	gr := c.codec.GlobalRank(ch, rk)

	state, rankReady := c.dev.StateAndReadyGlobal(gr)
	var wake sim.Time
	switch state {
	case dram.MPSM:
		panic(fmt.Sprintf("memctrl: access to MPSM rank %v at dpa %d", id, req.Addr))
	case dram.SelfRefresh:
		rankReady = c.dev.SetState(id, dram.Standby, req.Arrive)
		wake = rankReady - req.Arrive
		c.wakeups++
	}

	busSlot := max(req.Arrive, c.busFree[ch])

	bank := gr*c.banks + c.codec.BankOf(req.Addr)
	row := c.codec.RowOf(req.Addr)
	start := max(busSlot, rankReady, c.bankFree[bank])
	if c.refreshEnabled {
		start = c.afterRefresh(gr, start)
	}

	if c.lastRank[ch] >= 0 && c.lastRank[ch] != rk {
		start += c.tim.TRTR
	}
	if c.lastWrite[ch] != req.Write {
		if req.Write {
			start += c.tim.TRTW
		} else {
			start += c.tim.TWTR
		}
	}

	rowHit := c.openRow[bank] == row
	var accessLat sim.Time
	if rowHit {
		accessLat = c.tim.TCL
	} else {
		accessLat = c.tim.TRP + c.tim.TRCD + c.tim.TCL
		c.openRow[bank] = row
	}
	var degraded sim.Time
	if c.dev.FailedGlobal(gr) {
		degraded = c.tim.DegradedAccess
		accessLat += degraded
		c.degraded++
	}

	done := start + accessLat + c.tim.TBL

	busHold := c.tim.TCCD
	if c.tim.TBL > busHold {
		busHold = c.tim.TBL
	}
	c.busFree[ch] = busSlot + busHold
	c.busyNs[ch] += busHold
	c.lastRank[ch] = rk
	c.lastWrite[ch] = req.Write
	var bankBusyUntil sim.Time
	if rowHit {
		bankBusyUntil = start + c.tim.TCCD
	} else {
		bankBusyUntil = done
		if min := start + c.tim.TRAS; min > bankBusyUntil {
			bankBusyUntil = min
		}
	}
	if req.Write {
		bankBusyUntil += c.tim.TWR
	}
	c.bankFree[bank] = bankBusyUntil

	c.winAccesses[gr]++
	c.lifeAccesses[gr]++

	return Result{Start: start, Done: done, RowHit: rowHit, WakeDelay: wake, Degraded: degraded}
}

func (c *refController) afterRefresh(gr int, t sim.Time) sim.Time {
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

func (c *refController) ResetWindow() {
	for i := range c.winAccesses {
		c.winAccesses[i] = 0
	}
}

// TestControllerMatchesReference replays the rank-interleaved CloudSuite
// stream through the controller and refController on twin devices, with
// refresh on, ranks put into self-refresh as the stream runs (one of them
// with a wake fault), a failed rank paying the degraded penalty, and
// profiling windows reset along the way. Every Result field and every
// counter must agree after every access, and Woke must be set exactly when
// the access found its rank in self-refresh. The timing variants cover a zero
// self-refresh exit, a burst longer than tCCD, a tRAS floor above the
// row-miss latency and refresh disabled by a zero tREFI.
func TestControllerMatchesReference(t *testing.T) {
	variant := dram.DefaultTiming()
	variant.SelfRefreshExit = 0
	variant.TBL = 7 * sim.Nanosecond
	variant.TRAS = 80 * sim.Nanosecond
	variant.TREFI = 0
	for _, tc := range []struct {
		name string
		tim  dram.Timing
	}{{"default", dram.DefaultTiming()}, {"variant", variant}} {
		t.Run(tc.name, func(t *testing.T) { checkAgainstReference(t, tc.tim) })
	}
}

func checkAgainstReference(t *testing.T, tim dram.Timing) {
	g := dram.Default1TB()
	devA := dram.MustDevice(g, dram.DefaultPowerModel(), tim)
	devB := dram.MustDevice(g, dram.DefaultPowerModel(), tim)
	c, ref := New(devA), newRefController(devB)
	c.EnableRefresh()
	ref.refreshEnabled = true
	failed := dram.RankID{Channel: 1, Rank: 3}
	stuck := dram.RankID{Channel: 2, Rank: 5}
	for _, dev := range []*dram.Device{devA, devB} {
		dev.FailRank(failed, 0)
		dev.SetWakeFault(stuck, 900*sim.Nanosecond)
	}

	codec := devA.Codec()
	ps := trace.CloudSuite()
	for i := range ps {
		ps[i].FootprintBytes = 16 << 30
	}
	mix := trace.MustMixed(ps, 11)
	rng := rand.New(rand.NewSource(5))
	lastRank := make([]int, g.Channels)
	lastWrite := make([]bool, g.Channels)
	for ch := range lastRank {
		lastRank[ch] = -1
	}
	var switches, turnarounds, rowHits int
	const n = 1 << 16
	for i := 0; i < n; i++ {
		a := mix.Next()
		dsn := codec.RankInterleavedDSN(a.Addr / g.SegmentBytes)
		req := Request{
			Addr:   codec.Compose(dsn, a.Addr%g.SegmentBytes),
			Write:  a.Write,
			Arrive: sim.Time(float64(a.Instr) * 0.25),
		}
		if i%256 == 0 {
			id := dram.RankID{Channel: rng.Intn(g.Channels), Rank: rng.Intn(g.RanksPerChannel)}
			if i%1024 == 0 {
				id = stuck
			}
			devA.SetState(id, dram.SelfRefresh, req.Arrive)
			devB.SetState(id, dram.SelfRefresh, req.Arrive)
		}
		if i%4096 == 4095 {
			c.ResetWindow()
			ref.ResetWindow()
		}

		ch, rk := codec.RankOf(req.Addr)
		if lastRank[ch] >= 0 && lastRank[ch] != rk {
			switches++
		}
		if lastRank[ch] >= 0 && lastWrite[ch] != req.Write {
			turnarounds++
		}
		lastRank[ch], lastWrite[ch] = rk, req.Write

		// The reference reports no wake flag; a wake is an access that
		// finds its rank in self-refresh.
		wantWoke := devB.State(dram.RankID{Channel: ch, Rank: rk}) == dram.SelfRefresh
		got, want := c.Access(req), ref.Access(req)
		if got.Start != want.Start || got.Done != want.Done || got.RowHit != want.RowHit ||
			got.WakeDelay != want.WakeDelay || got.Degraded != want.Degraded || got.Woke != wantWoke {
			t.Fatalf("access %d (%+v): got %+v, want %+v (woke %v)", i, req, got, want, wantWoke)
		}
		if got.RowHit {
			rowHits++
		}
		if c.wakeups != ref.wakeups || c.stalls != ref.stalls || c.degraded != ref.degraded {
			t.Fatalf("access %d: wakeups/stalls/degraded %d/%d/%d, want %d/%d/%d",
				i, c.wakeups, c.stalls, c.degraded, ref.wakeups, ref.stalls, ref.degraded)
		}
		for gr := range ref.winAccesses {
			if c.winAccesses[gr] != ref.winAccesses[gr] || c.lifeAccesses[gr] != ref.lifeAccesses[gr] {
				t.Fatalf("access %d: rank %d window/lifetime %d/%d, want %d/%d", i, gr,
					c.winAccesses[gr], c.lifeAccesses[gr], ref.winAccesses[gr], ref.lifeAccesses[gr])
			}
		}
		for ch := range ref.busyNs {
			if c.busyNs[ch] != ref.busyNs[ch] || c.busFree[ch] != ref.busFree[ch] {
				t.Fatalf("access %d: channel %d busy/free %v/%v, want %v/%v", i, ch,
					c.busyNs[ch], c.busFree[ch], ref.busyNs[ch], ref.busFree[ch])
			}
		}
	}
	// The stream must exercise every path the reference has.
	if ref.wakeups == 0 || ref.degraded == 0 || switches == 0 || turnarounds == 0 || rowHits == 0 || rowHits == n {
		t.Fatalf("stream misses a path: wakeups %d, degraded %d, rank switches %d, turnarounds %d, row hits %d of %d",
			ref.wakeups, ref.degraded, switches, turnarounds, rowHits, n)
	}
	if tim.TREFI > 0 && ref.stalls == 0 {
		t.Fatal("refresh on, but no access stalled on a refresh window")
	}
}
