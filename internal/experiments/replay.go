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

// pressure compresses the replay's arrival pacing, emulating the paper's
// §5.2 adjustment of the trace replay rate to reach >30 GB/s of memory
// bandwidth at a comparable fraction of peak ("higher than the 95th percentile of memory bandwidth
// utilization in datacenters").
const pressure = 2.0

// replayController drives a mixed CloudSuite trace through a bare
// controller with the given geometry and mapping policy.
//
// rankInterleave=true models the conventional address mapping (consecutive
// segments rotate over channels and ranks); false models DTL's
// channel-only interleaving where traffic packs into the lowest ranks.
//
// rt, when non-nil, samples the controller's registry metrics over the
// replay's virtual clock (the caller finishes it with the returned endTime).
// Each access first fires every sample due at or before its arrival, so a
// sample at time T reflects exactly the accesses arriving before T.
//
// The replay streams: each access is played as the mix generates it.
// Controller state is all per channel or per rank, so playing channels
// interleaved in arrival order times every access as replaying each channel
// alone would. Latency is summed per channel and the partial sums are
// reduced in fixed channel order: float addition is non-associative, so
// that order is part of the output bytes.
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
	latSums := make([]float64, g.Channels)
	var rowHits int64
	var endTime sim.Time
	sample, sampling := rt.next()
	for i := 0; i < n; i++ {
		a := mix.Next()
		seq := a.Addr / segBytes
		dsn := dram.DSN(seq) // natural order: channel-interleaved, rank-high
		if rankInterleave {
			dsn = codec.RankInterleavedDSN(seq)
		}
		dpa := codec.Compose(dsn, a.Addr%segBytes)
		arrive := sim.Time(float64(a.Instr) * 0.5 / pressure) // 2 GHz, IPC 1, rate-adjusted
		for sampling && sample <= arrive {
			rt.tick(sample)
			sample, sampling = rt.next()
		}
		res := ctrl.Access(memctrl.Request{Addr: dpa, Write: a.Write, Arrive: arrive})
		ch, _ := codec.RankOf(dpa)
		latSums[ch] += float64(res.Done-arrive) + float64(linkLat)
		if res.RowHit {
			rowHits++
		}
		endTime = arrive // arrival stamps are non-decreasing
	}
	var latSum float64
	for _, s := range latSums {
		latSum += s
	}

	// The merged instruction clock advances at the aggregate rate; recover
	// total instructions from the final access's stamp.
	return replayStats{
		accesses:    int64(n),
		instr:       lastInstr(mix),
		meanLatNs:   latSum / float64(n),
		rowHitRatio: float64(rowHits) / float64(n),
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
