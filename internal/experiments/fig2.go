package experiments

import (
	"fmt"

	"dtl/internal/cxl"
	"dtl/internal/dram"
	"dtl/internal/metrics"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// Fig2 reproduces the rank-count sensitivity study: CloudSuite on a
// 4-channel system with 8/6/4/2 ranks per channel (rank-interleaved, the
// conventional mapping), constant channel count. The paper measures an
// average 0.7% slowdown for 2 ranks versus 8.
func Fig2(o Options) Result {
	res := newResult("Fig2", "Performance vs active ranks per channel",
		"average 0.7% performance loss for the 2-rank configuration vs 8-rank")
	w := o.out()
	res.header(w)

	n := o.scaled(2_000_000, 150_000)
	profiles := fig2Profiles(o.Quick)

	rankCounts := []int{8, 6, 4, 2}
	tab := metrics.NewTable("ranks/channel", "mean latency", "row-hit ratio", "slowdown vs 8")
	var baseTime float64
	for _, rk := range rankCounts {
		g := dram.Geometry{
			Channels:        4,
			RanksPerChannel: rk,
			BanksPerRank:    16,
			SegmentBytes:    2 * dram.MiB,
			RankBytes:       32 * dram.GiB,
		}
		// -metrics samples the headline 2-rank configuration (the paper's
		// claim compares it against the 8-rank baseline).
		var rt *runTelemetry
		if rk == 2 {
			rt = o.telemetryForRegistry(telemetry.NewRegistry(), 100*sim.Microsecond, 0)
		}
		st := replayController(g, true, cxl.NativeDRAMLatency, profiles, n, o.Seed, rt)
		if err := rt.finish(st.endTime); err != nil {
			panic(err)
		}
		t := st.execTime()
		if rk == 8 {
			baseTime = t
		}
		slow := t/baseTime - 1
		tab.AddRowf("%d\t%s\t%.3f\t%s", rk, nsT(st.meanLatNs), st.rowHitRatio, pct(slow))
		res.Metrics[fmt.Sprintf("slowdown_%dranks", rk)] = slow
	}
	tab.Render(w)
	res.footer(w)
	return res
}
