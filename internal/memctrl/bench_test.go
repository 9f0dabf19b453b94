package memctrl

import (
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/trace"
)

// BenchmarkControllerAccess measures one Controller.Access in the raw replay
// workload's state: a 4ch×8rk×32 GiB device fed the ten-profile CloudSuite
// stream under rank interleaving, pregenerated so only the controller is
// timed. The stream replays in a loop, shifted later in time on each pass
// so arrivals stay non-decreasing.
func BenchmarkControllerAccess(b *testing.B) {
	g := dram.Default1TB()
	dev := dram.MustDevice(g, dram.DefaultPowerModel(), dram.DefaultTiming())
	codec := dev.Codec()
	ps := trace.CloudSuite()
	for i := range ps {
		ps[i].FootprintBytes = 16 << 30
	}
	mix := trace.MustMixed(ps, 7)
	const n = 1 << 18
	reqs := make([]Request, n)
	for i := range reqs {
		a := mix.Next()
		dsn := codec.RankInterleavedDSN(a.Addr / g.SegmentBytes)
		reqs[i] = Request{
			Addr:   codec.Compose(dsn, a.Addr%g.SegmentBytes),
			Write:  a.Write,
			Arrive: sim.Time(float64(a.Instr) * 0.25),
		}
	}
	span := reqs[n-1].Arrive + 1
	c := New(dev)
	var shift, lat sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (n - 1)
		if j == 0 && i > 0 {
			shift += span
		}
		req := reqs[j]
		req.Arrive += shift
		lat += c.Access(req).Done - req.Arrive
	}
	if lat <= 0 {
		b.Fatal("no latency accumulated")
	}
}

// BenchmarkMixedReplay measures one access of the raw replay loop as it
// runs: trace.Mixed.Next, the rank-interleaved codec and Controller.Access
// interleaved on the 4ch×8rk×32 GiB device, with the ten-profile CloudSuite
// stream at 16 GiB each. Next's generation runs ahead on the producer
// while the codec and the controller work, as it does in replayController
// and bench/'s replay pass, so an op costs the longer of the two sides.
func BenchmarkMixedReplay(b *testing.B) {
	g := dram.Default1TB()
	dev := dram.MustDevice(g, dram.DefaultPowerModel(), dram.DefaultTiming())
	codec := dev.Codec()
	ps := trace.CloudSuite()
	for i := range ps {
		ps[i].FootprintBytes = 16 << 30
	}
	mix := trace.MustMixed(ps, 7)
	c := New(dev)
	var lat sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mix.Next()
		dsn := codec.RankInterleavedDSN(a.Addr / g.SegmentBytes)
		arrive := sim.Time(float64(a.Instr) * 0.25)
		res := c.Access(Request{Addr: codec.Compose(dsn, a.Addr%g.SegmentBytes), Write: a.Write, Arrive: arrive})
		lat += res.Done - arrive
	}
	if lat <= 0 {
		b.Fatal("no latency accumulated")
	}
}
