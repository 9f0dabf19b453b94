package experiments

import (
	"fmt"

	"dtl/internal/core"
	"dtl/internal/cxl"
	"dtl/internal/dram"
	"dtl/internal/metrics"
	"dtl/internal/sim"
)

// pdGeometry is the power-down evaluation device: 384 GiB behind 4 channels
// x 8 ranks (the paper uses 384 GB of a 1 TB machine and scales standby
// power proportionally; we size the ranks to 12 GiB for the same effect).
func pdGeometry() dram.Geometry {
	return dram.Geometry{
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       12 * dram.GiB,
	}
}

// runPowerDownSchedule is the 6-hour schedule behind Figures 12 and 13 and
// the faults experiment: one pdGeometry device under the power policy.
func runPowerDownSchedule(o Options) scheduleRun {
	cfg := core.DefaultConfig(pdGeometry())
	o.Policy.apply(&cfg)
	d, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return runSchedule(o, &deviceTarget{d: d})
}

// writePowerTimeline writes a power timeline as the CSV file name, one row
// per sample interval, when o asks for CSVs.
func writePowerTimeline(o Options, name string, samples []powerSample) {
	f := o.csvFile(name)
	if f == nil {
		return
	}
	fmt.Fprintln(f, "minute,background,active,total,migrating")
	for _, s := range samples {
		mig := 0
		if s.migrating {
			mig = 1
		}
		fmt.Fprintf(f, "%d,%.3f,%.3f,%.3f,%d\n",
			int64(s.at/sim.Minute), s.background, s.active, s.background+s.active, mig)
	}
	f.Close()
}

// measurePerfOverhead replays a short CloudSuite mix on the baseline
// (8 ranks, rank-interleaved) and the technique configuration (fewer
// ranks, channel-only mapping) and adds the 0.18% translation overhead the
// AMAT analysis yields (§6.1).
func measurePerfOverhead(o Options, activeRanks int) float64 {
	if activeRanks < 1 {
		activeRanks = 1
	}
	n := o.scaled(400_000, 80_000)
	profiles := fig2Profiles(true) // small footprints fit every config
	base := replayController(dram.Geometry{
		Channels: 4, RanksPerChannel: 8, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 32 * dram.GiB,
	}, true, cxl.CXLMemoryLatency, profiles, n, o.Seed, nil)
	tech := replayController(dram.Geometry{
		Channels: 4, RanksPerChannel: activeRanks, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 32 * dram.GiB,
	}, false, cxl.CXLMemoryLatency, profiles, n, o.Seed, nil)
	const translationOverhead = 0.0018
	return tech.execTime()/base.execTime() - 1 + translationOverhead
}

// Fig12 reproduces the headline power-down result: runtime DRAM power over
// the 6-hour VM schedule (a) and a 31.6% DRAM energy reduction at a 1.6%
// performance cost (b).
func Fig12(o Options) Result {
	res := newResult("Fig12", "Rank-level power-down over the 6-hour schedule",
		"31.6% DRAM energy reduction at 1.6% performance cost")
	w := o.out()
	res.header(w)

	run := runPowerDownSchedule(o)
	// Performance overhead of the technique (§5.1 method): channel-only
	// mapping on the mean active-rank configuration versus the
	// rank-interleaved 8-rank baseline, plus the DTL translation overhead.
	perfOverhead := measurePerfOverhead(o, int(run.meanActiveRanks+0.5))
	writePowerTimeline(o, "fig12_power_timeline", run.samples)

	fmt.Fprintln(w, "(a) runtime DRAM power (technique), one row per 30 minutes")
	tab := metrics.NewTable("time", "background", "active", "total", "migrating")
	for i, s := range run.samples {
		if i%6 != 0 {
			continue
		}
		mig := ""
		if s.migrating {
			mig = "yes"
		}
		tab.AddRowf("%dmin\t%.1f\t%.1f\t%.1f\t%s",
			int64(s.at/sim.Minute), s.background, s.active, s.background+s.active, mig)
	}
	tab.Render(w)

	saving := run.energySaving()
	fmt.Fprintf(w, "\n(b) energy: baseline %.3g, technique %.3g units-s\n",
		(run.baseBGEnergy+run.activeEnergy)/1e9, run.energyProxy()/1e9)
	fmt.Fprintf(w, "energy saving %s (paper: 31.6%%), perf overhead %s (paper: 1.6%%)\n",
		pct(saving), pct(perfOverhead))
	fmt.Fprintf(w, "mean active ranks/channel %.2f of 8; %s migrated across %d intervals\n",
		run.meanActiveRanks, dram.FormatBytes(run.bytesMigrated), run.migrationSpans)

	res.Metrics["energy_saving"] = saving
	res.Metrics["perf_overhead"] = perfOverhead
	res.Metrics["mean_active_ranks"] = run.meanActiveRanks
	res.footer(w)
	return res
}

// Fig13 reproduces the power breakdown: background power reduced by ~35.3%,
// total power by ~32.7%, with active power nearly unchanged.
func Fig13(o Options) Result {
	res := newResult("Fig13", "DRAM power breakdown",
		"background power -35.3%, total power -32.7%; active power roughly unchanged")
	w := o.out()
	res.header(w)

	run := runPowerDownSchedule(o)
	baseBG, baseActive := run.baseBGEnergy, run.activeEnergy
	techBG, techActive := run.techBGEnergy, run.activeEnergy+run.migEnergy
	bgSaving := 1 - techBG/baseBG
	totalSaving := 1 - (techBG+techActive)/(baseBG+baseActive)

	tab := metrics.NewTable("component", "baseline (units-s)", "power-down (units-s)", "reduction")
	tab.AddRowf("background\t%.3g\t%.3g\t%s", baseBG/1e9, techBG/1e9, pct(bgSaving))
	tab.AddRowf("active\t%.3g\t%.3g\t%s",
		baseActive/1e9, techActive/1e9, pct(1-techActive/baseActive))
	tab.AddRowf("total\t%.3g\t%.3g\t%s",
		(baseBG+baseActive)/1e9, (techBG+techActive)/1e9, pct(totalSaving))
	tab.Render(w)

	res.Metrics["background_saving"] = bgSaving
	res.Metrics["total_saving"] = totalSaving
	res.footer(w)
	return res
}
