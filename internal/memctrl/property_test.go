package memctrl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// TestPropertyCausality: for any request stream with nondecreasing arrival
// times, every result respects Done >= Start >= Arrive, and the channel's
// bus reservation never moves backwards.
func TestPropertyCausality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCtrl()
		if rng.Intn(2) == 0 {
			c.EnableRefresh()
		}
		g := c.Device().Geometry()
		now := sim.Time(0)
		prevBus := make([]sim.Time, g.Channels)
		for i := 0; i < 2000; i++ {
			now += sim.Time(rng.Intn(50))
			addr := dram.DPA(rng.Int63n(g.TotalBytes())) &^ 63
			res := c.Access(Request{Addr: addr, Write: rng.Intn(3) == 0, Arrive: now})
			if res.Start < now {
				t.Logf("seed %d: start %v before arrive %v", seed, res.Start, now)
				return false
			}
			if res.Done < res.Start {
				t.Logf("seed %d: done %v before start %v", seed, res.Done, res.Start)
				return false
			}
			for ch := 0; ch < g.Channels; ch++ {
				if c.ChannelBusyUntil(ch) < prevBus[ch] {
					t.Logf("seed %d: channel %d bus moved backwards", seed, ch)
					return false
				}
				prevBus[ch] = c.ChannelBusyUntil(ch)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCountersConserved: the lifetime counters agree with the
// number of requests issued, regardless of the address pattern.
func TestPropertyCountersConserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCtrl()
		g := c.Device().Geometry()
		const n = 1500
		for i := 0; i < n; i++ {
			addr := dram.DPA(rng.Int63n(g.TotalBytes())) &^ 63
			c.Access(Request{Addr: addr, Arrive: sim.Time(i * 10)})
		}
		if lifeTotal := sumI64(c.lifeAccesses); lifeTotal != n {
			t.Logf("seed %d: lifetime %d want %d", seed, lifeTotal, n)
			return false
		}
		return c.TotalBytes() == int64(n)*LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLatencyBounded: with bounded offered load, no request's
// latency explodes beyond a generous bound (no runaway queueing in the
// FR-FCFS model).
func TestPropertyLatencyBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCtrl()
		g := c.Device().Geometry()
		now := sim.Time(0)
		for i := 0; i < 5000; i++ {
			now += sim.Time(20 + rng.Intn(20)) // well under channel capacity
			addr := dram.DPA(rng.Int63n(g.TotalBytes())) &^ 63
			res := c.Access(Request{Addr: addr, Arrive: now})
			if lat := res.Done - now; lat > 2*sim.Microsecond {
				t.Logf("seed %d: latency %v at i=%d", seed, lat, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
