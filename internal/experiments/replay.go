package experiments

import (
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/memctrl"
	"dtl/internal/sim"
	"dtl/internal/trace"
)

// replayStats summarizes a raw controller replay (no DTL translation):
// used by Fig. 2 and Fig. 5, which study the memory system's sensitivity
// to rank count and interleaving policy in a conventional server.
type replayStats struct {
	accesses    int64
	instr       int64
	meanLatNs   float64 // device latency including the link
	rowHitRatio float64
	endTime     sim.Time // virtual time of the last arrival, for rt.finish
}

// execTime converts the replay into the wall-clock execution-time model at
// the compressed replay rate.
func (r replayStats) execTime() float64 {
	return executionTime(int64(float64(r.instr)/pressure), r.accesses, r.meanLatNs)
}

// replayController drives a mixed CloudSuite trace through a bare
// controller with the given geometry and mapping policy.
//
// rankInterleave=true models the conventional address mapping (consecutive
// segments rotate over channels and ranks); false models DTL's
// channel-only interleaving where traffic packs into the lowest ranks.
// pressure compresses the replay's arrival pacing, emulating the paper's
// §5.2 adjustment of the trace replay rate to reach >30 GB/s of memory
// bandwidth at a comparable fraction of peak ("higher than the 95th percentile of memory bandwidth
// utilization in datacenters").
const pressure = 2.0

// chanReplay is one channel's slice of the replay stream in struct-of-arrays
// form — three dense parallel slices the replay kernel walks front to back —
// plus that channel's private accumulators. Latency is summed per channel
// and the partial sums are reduced in fixed channel order: float addition is
// non-associative, so that order is part of the output bytes.
type chanReplay struct {
	dpa    []dram.DPA
	write  []bool
	arrive []sim.Time

	next    int // first unplayed index
	latSum  float64
	rowHits int64
}

// runTo replays the channel's entries arriving strictly before limit.
func (cr *chanReplay) runTo(ctrl *memctrl.Controller, linkLat sim.Time, limit sim.Time) {
	for ; cr.next < len(cr.arrive) && cr.arrive[cr.next] < limit; cr.next++ {
		i := cr.next
		arrive := cr.arrive[i]
		res := ctrl.Access(memctrl.Request{Addr: cr.dpa[i], Write: cr.write[i], Arrive: arrive})
		cr.latSum += float64(res.Done-arrive) + float64(linkLat)
		if res.RowHit {
			cr.rowHits++
		}
	}
}

// rt, when non-nil, samples the controller's registry metrics over the
// replay's virtual clock (the caller finishes it with the returned endTime).
// Every channel is replayed up to each sampling boundary before the sample
// fires, so a sample at time T reflects exactly the accesses arriving
// before T.
func replayController(g dram.Geometry, rankInterleave bool, linkLat sim.Time,
	profiles []trace.Profile, n int, seed int64, rt *runTelemetry) replayStats {

	dev := dram.MustDevice(g, dram.DefaultPowerModel(), dram.DefaultTiming())
	ctrl := memctrl.New(dev)
	codec := dev.Codec()
	if rt != nil {
		ctrl.RegisterMetrics(rt.reg)
	}

	mix := trace.MustMixed(profiles, seed)
	if mix.TotalFootprint() > g.TotalBytes() {
		panic(fmt.Sprintf("experiments: footprint %d exceeds device %d", mix.TotalFootprint(), g.TotalBytes()))
	}

	segBytes := g.SegmentBytes
	mapSeg := func(seq int64) dram.DSN {
		if rankInterleave {
			return codec.RankInterleavedDSN(seq)
		}
		return dram.DSN(seq) // natural order: channel-interleaved, rank-high
	}

	// Generation phase: materialize the merged stream into per-channel SoA
	// buffers. Arrival stamps are non-decreasing, so endTime is the last one.
	// Each channel's buffers are sized up front for its even share of n plus
	// a quarter: segment interleaving keeps every channel's share within
	// ~12% of even, so they fill without regrowing (append still covers an
	// outlier).
	chans := make([]chanReplay, g.Channels)
	perChan := n/g.Channels + n/(4*g.Channels) + 1
	for ch := range chans {
		chans[ch].dpa = make([]dram.DPA, 0, perChan)
		chans[ch].write = make([]bool, 0, perChan)
		chans[ch].arrive = make([]sim.Time, 0, perChan)
	}
	var endTime sim.Time
	for i := 0; i < n; i++ {
		a := mix.Next()
		seq := a.Addr / segBytes
		dpa := codec.Compose(mapSeg(seq), a.Addr%segBytes)
		arrive := sim.Time(float64(a.Instr) * 0.5 / pressure) // 2 GHz, IPC 1, rate-adjusted
		ch, _ := codec.RankOf(dpa)
		cr := &chans[ch]
		cr.dpa = append(cr.dpa, dpa)
		cr.write = append(cr.write, a.Write)
		cr.arrive = append(cr.arrive, arrive)
		endTime = arrive
	}

	// Replay phase: rounds bounded by the sampling clock's next event, each
	// walking the channels in index order, then a final round past endTime.
	for {
		b, ok := rt.next()
		if !ok || b > endTime {
			break
		}
		for ch := range chans {
			chans[ch].runTo(ctrl, linkLat, b)
		}
		rt.tick(b)
	}
	var latSum float64
	var rowHits, accesses int64
	for ch := range chans {
		chans[ch].runTo(ctrl, linkLat, endTime+1)
		latSum += chans[ch].latSum
		rowHits += chans[ch].rowHits
		accesses += int64(len(chans[ch].arrive))
	}

	// The merged instruction clock advances at the aggregate rate; recover
	// total instructions from the final access's stamp.
	return replayStats{
		accesses:    accesses,
		instr:       lastInstr(mix),
		meanLatNs:   latSum / float64(accesses),
		rowHitRatio: float64(rowHits) / float64(accesses),
		endTime:     endTime,
	}
}

func lastInstr(m *trace.Mixed) int64 {
	// Peek by generating one more access; its stamp bounds the total.
	return m.Next().Instr
}

// fig2Profiles returns the ten CloudSuite profiles with footprints shrunk
// to fit the smallest swept configuration.
func fig2Profiles(quick bool) []trace.Profile {
	ps := trace.CloudSuite()
	// Size the combined allocation to span more than one rank per channel
	// under the channel-only mapping (as the paper's 64 GB working set
	// does), while fitting the smallest swept configuration.
	foot := int64(16 << 30) // 16 GB each: 160 GB total, 40 GB per channel
	if quick {
		foot = 4 << 30
	}
	for i := range ps {
		ps[i].FootprintBytes = foot
	}
	return ps
}
