package experiments

import (
	"fmt"

	"dtl/internal/core"
	"dtl/internal/cxl"
	"dtl/internal/dram"
	"dtl/internal/metrics"
	"dtl/internal/sim"
	"dtl/internal/trace"
)

// Ablations sweep the design choices the paper fixes (§4.1 segment size,
// §3.2 SMC sizing, §3.4 profiling threshold and TSP timeout, §3.3
// rank-group granularity) and quantify why the paper's choice sits where
// it does. They are registered as experiments (abl-*) and reused by the
// benchmark harness.

// AblationSegmentSize sweeps the translation granularity: smaller segments
// expose more cold capacity (good for self-refresh) but inflate the
// mapping-table and migration-table footprint (Table 5's trade-off).
func AblationSegmentSize(o Options) Result {
	res := newResult("AblSegSize", "Segment size vs cold share and metadata cost",
		"§4.1 picks 2MB: cold share close to 1MB's at a quarter of 1MB's metadata")
	w := o.out()
	res.header(w)

	n := o.scaled(400_000, 100_000)
	p, err := trace.ProfileByName("data-analytics")
	if err != nil {
		panic(err)
	}
	p.FootprintBytes = 1 << 30

	tab := metrics.NewTable("segment", "cold share", "mapping tables (1TB device)")
	for _, segMB := range []int64{1, 2, 4, 8} {
		g := trace.MustGenerator(p, o.Seed)
		cold := trace.ColdFraction(g.Next, n, p.FootprintBytes, segMB<<20, 10_000_000)

		geom := dram.Default1TB()
		geom.SegmentBytes = segMB << 20
		cfg := core.DefaultConfig(geom)
		sizes := cfg.Sizes()
		meta := sizes.TotalSRAM() + sizes.TotalDRAM()

		tab.AddRowf("%dMB\t%s\t%s", segMB, pct(cold), dram.FormatBytes(meta))
		res.Metrics[fmt.Sprintf("cold_%dmb", segMB)] = cold
		res.Metrics[fmt.Sprintf("meta_bytes_%dmb", segMB)] = float64(meta)
	}
	tab.Render(w)
	res.footer(w)
	return res
}

// AblationSMC sweeps the segment mapping cache sizing and reports the
// average translation latency each yields under a mixed workload.
func AblationSMC(o Options) Result {
	res := newResult("AblSMC", "Segment mapping cache sizing",
		"the 64-entry L1 + 1024-entry L2 point keeps translation in single-digit ns")
	w := o.out()
	res.header(w)

	n := o.scaled(400_000, 60_000)
	configs := []struct {
		name   string
		l1, l2 int
		paper  bool // the paper's sizing gets the -trace/-metrics outputs
	}{
		{"16/256", 16, 256, false},
		{"64/1024 (paper)", 64, 1024, true},
		{"256/4096", 256, 4096, false},
	}
	tab := metrics.NewTable("L1/L2 entries", "L1 miss", "L2 miss", "translation")
	for _, sc := range configs {
		geom := dram.Geometry{
			Channels: 4, RanksPerChannel: 8, BanksPerRank: 16,
			SegmentBytes: 2 * dram.MiB, RankBytes: 2 * dram.GiB,
		}
		cfg := core.DefaultConfig(geom)
		cfg.L1SMCEntries = sc.l1
		cfg.L2SMCEntries = sc.l2
		d, err := core.New(cfg)
		if err != nil {
			panic(err)
		}
		p, _ := trace.ProfileByName("data-caching")
		p.FootprintBytes = 8 << 30
		g := trace.MustGenerator(p, o.Seed)
		alloc, err := d.AllocateVM(1, 0, p.FootprintBytes, 0)
		if err != nil {
			panic(err)
		}
		var rt *runTelemetry
		if sc.paper {
			rt = o.telemetryFor(d, 50*sim.Microsecond, 0)
		}
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			a := g.Next()
			if _, err := d.Access(alloc.AUBases[0]+dram.HPA(a.Addr), a.Write, now); err != nil {
				panic(err)
			}
			now += 5
			rt.tick(now)
		}
		if err := rt.finish(now); err != nil {
			panic(err)
		}
		st := d.SMCStats()
		m := core.AMATFromConfig(cxl.CXLMemoryLatency, st)
		tab.AddRowf("%s\t%s\t%s\t%s", sc.name,
			pct(st.L1MissRatio()), pct(st.L2MissRatio()), nsT(m.Translation()))
		key := fmt.Sprintf("translation_ns_%dx%d", sc.l1, sc.l2)
		res.Metrics[key] = m.Translation()
	}
	tab.Render(w)
	res.footer(w)
	return res
}

// ablSelfRefreshRun replays n accesses of a data-caching mix with the
// hotness engine under one parameter set. When o carries -trace/-metrics paths the
// run is instrumented; sweep callers pass o.withoutTelemetry() for every
// point but the paper's, so the output files describe a single
// well-defined configuration.
func ablSelfRefreshRun(o Options, threshold sim.Time, tspEntries int, n int) srRunResult {
	geom := dram.Geometry{
		Channels: 4, RanksPerChannel: 4, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 256 * dram.MiB,
	}
	cfg := core.DefaultConfig(geom)
	cfg.AUBytes = 64 * dram.MiB
	cfg.ProfilingWindow = 20_000
	cfg.ProfilingThreshold = threshold
	cfg.TSPTimeoutEntries = tspEntries
	p, _ := trace.ProfileByName("data-caching")
	p.FootprintBytes = 1792 << 20
	p.HotBias = 0.99
	p.UntouchedFraction = 0.5
	return srReplay{cfg: cfg, profiles: []trace.Profile{p}, allocBytes: p.FootprintBytes,
		accesses: n, period: 100 * sim.Microsecond}.run(o)
}

// duty is the share of the active ranks' time spent in self-refresh: their
// self-refresh energy over the state's Table 2 power.
func (r srRunResult) duty() float64 {
	pm := dram.DefaultPowerModel()
	return r.selfRefEnergy / pm.SelfRefreshPower / float64(r.span) / float64(r.activeRanks)
}

// AblationProfilingThreshold sweeps the §3.4 idle threshold: lower
// thresholds enter self-refresh eagerly (more entries, more migration);
// higher ones suppress migration but also give up savings.
func AblationProfilingThreshold(o Options) Result {
	res := newResult("AblThreshold", "Profiling idle threshold",
		"§3.4's threshold balances migration churn against time spent in self-refresh")
	w := o.out()
	res.header(w)

	n := o.scaled(1_500_000, 600_000)
	thresholds := []sim.Time{50_000, 100_000, 400_000}
	points := sweepPoints(thresholds, o.Parallel, func(thr sim.Time) srRunResult {
		po := o
		if thr != 100_000 { // only the paper's threshold writes -trace/-metrics
			po = o.withoutTelemetry()
		}
		return ablSelfRefreshRun(po, thr, 32, n)
	})
	tab := metrics.NewTable("threshold", "SR enters", "segments swapped", "SR duty")
	for i, thr := range thresholds {
		p := points[i]
		tab.AddRowf("%v\t%d\t%d\t%s", thr, p.srEnters, p.swapped, pct(p.duty()))
		res.Metrics[fmt.Sprintf("sr_enters_%dus", int64(thr)/1000)] = float64(p.srEnters)
		res.Metrics[fmt.Sprintf("swapped_%dus", int64(thr)/1000)] = float64(p.swapped)
	}
	tab.Render(w)
	res.footer(w)
	return res
}

// AblationTSPTimeout sweeps the CLOCK-walk budget (the 40ns TSP timeout of
// §3.4 expressed as entries inspected per walk): starving the walk slows
// cold-set collection.
func AblationTSPTimeout(o Options) Result {
	res := newResult("AblTSP", "TSP walk budget",
		"too small a budget starves cold-candidate discovery; the paper's 40ns suffices")
	w := o.out()
	res.header(w)

	n := o.scaled(1_500_000, 600_000)
	budgets := []int{4, 32, 256}
	points := sweepPoints(budgets, o.Parallel, func(budget int) srRunResult {
		po := o
		if budget != 32 { // only the paper's budget writes -trace/-metrics
			po = o.withoutTelemetry()
		}
		return ablSelfRefreshRun(po, 100_000, budget, n)
	})
	tab := metrics.NewTable("budget (entries)", "SR enters", "SR duty")
	for i, budget := range budgets {
		p := points[i]
		tab.AddRowf("%d\t%d\t%s", budget, p.srEnters, pct(p.duty()))
		res.Metrics[fmt.Sprintf("sr_enters_b%d", budget)] = float64(p.srEnters)
	}
	tab.Render(w)
	res.footer(w)
	return res
}

// AblationRankGroup compares power-down at rank-group granularity (the
// paper's choice) against hypothetical per-rank power-down: per-rank saves
// slightly more background power but leaves channels with unequal active
// capacity, breaking the per-VM bandwidth guarantee of §3.3.
func AblationRankGroup(o Options) Result {
	res := newResult("AblRankGroup", "Rank-group vs per-rank power-down",
		"§3.3 powers down whole rank groups to keep per-VM channel bandwidth balanced")
	w := o.out()
	res.header(w)

	g := dram.Default1TB()
	pm := dram.DefaultPowerModel()
	// Sweep unallocated capacity; compare how many ranks each policy idles.
	tab := metrics.NewTable("free ranks' worth", "groups off (ranks)", "per-rank off", "bg power group", "bg power per-rank", "channel imbalance")
	for _, freeRanks := range []int{3, 6, 9, 13} {
		groupsOff := freeRanks / g.Channels * g.Channels
		perRankOff := freeRanks
		bgGroup := float64(g.TotalRanks()-groupsOff)*pm.StandbyPower + float64(groupsOff)*pm.MPSMPower
		bgPerRank := float64(g.TotalRanks()-perRankOff)*pm.StandbyPower + float64(perRankOff)*pm.MPSMPower
		imbalance := perRankOff % g.Channels // ranks unevenly distributed
		tab.AddRowf("%d\t%d\t%d\t%.2f\t%.2f\t%d ranks", freeRanks, groupsOff, perRankOff, bgGroup, bgPerRank, imbalance)
		res.Metrics[fmt.Sprintf("bg_group_%dfree", freeRanks)] = bgGroup
		res.Metrics[fmt.Sprintf("bg_perrank_%dfree", freeRanks)] = bgPerRank
	}
	tab.Render(w)
	fmt.Fprintln(w, "\nper-rank saves slightly more but leaves some channels with fewer active ranks,")
	fmt.Fprintln(w, "giving VMs on those channels less bandwidth — the imbalance §3.3 avoids")
	res.footer(w)
	return res
}
