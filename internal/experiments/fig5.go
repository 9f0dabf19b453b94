package experiments

import (
	"dtl/internal/cxl"
	"dtl/internal/dram"
	"dtl/internal/metrics"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// Fig5 reproduces the rank-interleaving cost study: disabling
// rank-interleaving (DTL's mapping) costs 1.7% with local-DRAM latency and
// only 1.4% with CXL latency, because the fixed link latency dilutes the
// relative penalty.
func Fig5(o Options) Result {
	res := newResult("Fig5", "Performance impact of disabling rank-interleaving",
		"1.7% average loss at local latency (121ns), 1.4% at CXL latency (210ns)")
	w := o.out()
	res.header(w)

	n := o.scaled(2_000_000, 150_000)
	profiles := fig2Profiles(o.Quick)
	g := dram.Default1TB()

	tab := metrics.NewTable("latency", "mapping", "mean latency", "exec time (ms)", "loss")
	for _, link := range []struct {
		name string
		lat  sim.Time
	}{{"local (121ns)", cxl.NativeDRAMLatency}, {"CXL (210ns)", cxl.CXLMemoryLatency}} {
		// -metrics samples the CXL channel-only replay (DTL's mapping at the
		// paper's operating point); the other three runs stay uninstrumented.
		var rt *runTelemetry
		if link.lat == cxl.CXLMemoryLatency {
			rt = o.telemetryForRegistry(telemetry.NewRegistry(), 100*sim.Microsecond, 0)
		}
		ri := replayController(g, true, link.lat, profiles, n, o.Seed, nil)
		nori := replayController(g, false, link.lat, profiles, n, o.Seed, rt)
		if err := rt.finish(nori.endTime); err != nil {
			panic(err)
		}
		loss := nori.execTime()/ri.execTime() - 1
		tab.AddRowf("%s\trank-interleaved\t%s\t%.2f\t-",
			link.name, nsT(ri.meanLatNs), ri.execTime()/1e6)
		tab.AddRowf("%s\tchannel-only (DTL)\t%s\t%.2f\t%s",
			link.name, nsT(nori.meanLatNs), nori.execTime()/1e6, pct(loss))
		key := "loss_local"
		if link.lat == cxl.CXLMemoryLatency {
			key = "loss_cxl"
		}
		res.Metrics[key] = loss
	}
	tab.Render(w)
	res.footer(w)
	return res
}
