package experiments

import (
	"errors"
	"fmt"
	"sort"

	"dtl/internal/core"
	"dtl/internal/cxl"
	"dtl/internal/dram"
	"dtl/internal/fault"
	"dtl/internal/metrics"
	"dtl/internal/power"
	"dtl/internal/sim"
	"dtl/internal/trace"
	"dtl/internal/vmtrace"
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

// vmBandwidthGBs estimates a VM's memory bandwidth demand from its vCPU
// count and workload MAPKI: vcpus x 2 GHz x IPC 1 x MAPKI/1000 x 64 B.
func vmBandwidthGBs(vm vmtrace.VM) float64 {
	mapki := 2.5 // mixed CloudSuite default
	if vm.Workload != "" {
		if p, err := trace.ProfileByName(vm.Workload); err == nil {
			mapki = p.MAPKI
		}
	}
	return float64(vm.VCPUs) * 2.0 * mapki / 1000.0 * 64.0
}

// pdRun is the shared 6-hour simulation behind Figures 12 and 13.
type pdRun struct {
	horizon sim.Time

	baseBGEnergy float64 // baseline background energy (units x ns)
	techBGEnergy float64
	activeEnergy float64 // identical foreground active energy in both runs
	migEnergy    float64 // extra migration energy (technique only)

	meanActiveRanks float64
	samples         []power.Sample // technique timeline
	migrationSpans  int            // intervals with migration activity
	bytesMigrated   int64
	probeLatNs      int64 // summed latency of health-plane degraded probes
	degradedProbes  int   // probes issued against failed-but-live ranks

	// Reliability outcomes, populated when Options.FaultSpec is set.
	faultStats    fault.Stats
	shedVMs       int // allocations refused under degraded capacity
	probeFailures int // end-of-run read probes that failed (must stay 0)
	retiredRanks  int
	migStats      core.MigStats
	health        map[string]float64 // core.health.* counter snapshot
}

func runPowerDownSchedule(o Options) pdRun {
	g := pdGeometry()
	cfg := core.DefaultConfig(g)
	o.Policy.apply(&cfg)
	d, err := core.New(cfg)
	if err != nil {
		panic(err)
	}

	workloads := make([]string, 0, 10)
	for _, p := range trace.CloudSuite() {
		workloads = append(workloads, p.Name)
	}
	genCfg := vmtrace.DefaultGenConfig()
	genCfg.Seed = o.Seed
	genCfg.NumVMs = o.scaled(400, 120)
	genCfg.Workloads = workloads
	vms := vmtrace.Generate(genCfg)
	srv := vmtrace.Server{VCPUs: 48, MemBytes: g.TotalBytes()}
	events, _, err := vmtrace.Schedule(vms, srv, genCfg.Horizon)
	if err != nil {
		panic(err)
	}

	run := pdRun{horizon: genCfg.Horizon}
	rt := o.telemetryFor(d, vmtrace.Interval, genCfg.Horizon)

	// With a fault spec, a seeded injector drives device faults on its own
	// virtual-time engine, advanced in lockstep with the schedule clock; the
	// health monitor (driven from d.Tick below) closes the loop by retiring
	// degraded ranks. Allocation then degrades gracefully: requests the
	// shrunken capacity cannot hold are shed, not fatal.
	var inj *fault.Injector
	var feng *sim.Engine
	if o.FaultSpec != "" {
		spec, err := fault.Parse(o.FaultSpec)
		if err != nil {
			panic(err)
		}
		feng = sim.NewEngine()
		inj, err = fault.NewInjector(spec, d.Device(), feng)
		if err != nil {
			panic(err)
		}
		inj.Start(genCfg.Horizon)
	}
	shed := map[core.VMID]bool{}
	// A patrol-scrub budget sized to cover the device roughly once per hour.
	scrubPerInterval := int(g.TotalSegments() * int64(vmtrace.Interval) / int64(sim.Hour))

	pm := d.Device().Power()
	meter := power.NewMeter(pm)
	live := map[core.VMID]vmtrace.VM{}
	var liveIDs []core.VMID // reused scratch for deterministic iteration
	ei := 0
	var rankSum float64
	var intervals int
	var prevMigBytes int64

	for t := sim.Time(0); t <= genCfg.Horizon; t += vmtrace.Interval {
		o.checkCanceled()
		if feng != nil {
			feng.RunUntil(t)
			// Health-plane probe: one read per failed rank still holding live
			// data, BEFORE the event loop and Tick can drain and retire it (a
			// departure's DeallocateVM already processes deferred retirements)
			// — so the attribution ledger observes the degraded-read penalty
			// the tenants are paying.
			if n, lat := d.ProbeDegraded(t); n > 0 {
				run.degradedProbes += n
				run.probeLatNs += int64(lat)
			}
		}
		for ei < len(events) && events[ei].At <= t {
			ev := events[ei]
			ei++
			id := core.VMID(ev.VM.ID)
			if ev.Depart {
				if shed[id] {
					delete(shed, id) // never admitted; nothing to release
					continue
				}
				if err := d.DeallocateVM(id, t); err != nil {
					panic(err)
				}
				delete(live, id)
			} else {
				if _, err := d.AllocateVM(id, core.HostID(ev.VM.ID%cfg.MaxHosts), ev.VM.MemBytes, t); err != nil {
					if inj != nil && errors.Is(err, core.ErrOutOfCapacity) {
						run.shedVMs++
						shed[id] = true
						continue
					}
					panic(err)
				}
				live[id] = ev.VM
			}
		}
		if inj != nil {
			d.Tick(t) // completes migrations and drives deferred retirements
			if _, err := d.Scrubber().Run(t, scrubPerInterval); err != nil {
				panic(fmt.Sprintf("experiments: scrub at %v: %v", t, err))
			}
		}

		// Sum in VM-id order: float addition is not associative, so a map
		// iteration here would let rounding differ between identical runs.
		liveIDs = sortedLive(live, liveIDs)
		var bw float64
		for _, id := range liveIDs {
			bw += vmBandwidthGBs(live[id])
		}
		bg := d.Device().BackgroundPowerNow()
		migBytes := d.Stats().BytesMigrated
		migrating := migBytes > prevMigBytes
		if migrating {
			run.migrationSpans++
		}
		prevMigBytes = migBytes
		meter.Record(t, bg, pm.Active(bw), migrating)

		rankSum += float64(d.ActiveRanksPerChannel())
		intervals++
		rt.tick(t)
	}
	if inj != nil {
		// Zero-data-loss check: every surviving VM's memory must still be
		// addressable and readable (retired ranks were drained; a failed rank
		// not yet drained still serves reads in degraded mode).
		// Probe in VM-id order: Access has model side effects (SMC fills,
		// self-refresh wakes), so map order here would leak into the trace.
		for _, id := range sortedLive(live, liveIDs) {
			addrs, err := d.VMAddresses(id)
			if err != nil {
				panic(err)
			}
			for _, a := range addrs {
				res, err := d.Access(a, false, genCfg.Horizon)
				if err != nil {
					run.probeFailures++
					continue
				}
				run.probeLatNs += int64(res.TotalLat())
			}
		}
		if err := d.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("experiments: invariants violated after fault run: %v", err))
		}
		run.faultStats = inj.Stats()
		run.retiredRanks = len(d.RetiredRanks())
		run.migStats = d.Migrator().Stats()
		run.health = map[string]float64{}
		for _, name := range []string{"storms", "auto_retires", "retires_deferred",
			"retire_retries", "retires_abandoned", "fault_events"} {
			v, _ := d.Registry().Value("core.health." + name)
			run.health[name] = v
		}
	}
	if err := rt.finish(genCfg.Horizon); err != nil {
		panic(err)
	}
	meter.FinishAt(genCfg.Horizon)
	d.Device().AccountUpTo(genCfg.Horizon)

	st, sr, mp := d.Device().BackgroundEnergy()
	run.techBGEnergy = st + sr + mp
	run.baseBGEnergy = float64(g.TotalRanks()) * pm.StandbyPower * float64(genCfg.Horizon)
	_, act, _ := meter.Energy()
	run.activeEnergy = act
	// Migration energy: moving B bytes at any bandwidth W costs
	// slope*W power for B/W ns, i.e. slope*B units x ns regardless of W.
	run.bytesMigrated = d.Stats().BytesMigrated
	run.migEnergy = pm.ActivePowerPerGBs * float64(run.bytesMigrated)
	run.meanActiveRanks = rankSum / float64(intervals)
	run.samples = meter.Samples()
	return run
}

// sortedLive refills ids with the ids of live in ascending order and
// returns it.
func sortedLive(live map[core.VMID]vmtrace.VM, ids []core.VMID) []core.VMID {
	ids = ids[:0]
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// writePowerTimeline writes a power timeline as the CSV file name, one row
// per sample interval, when o asks for CSVs.
func writePowerTimeline(o Options, name string, samples []power.Sample) {
	f := o.csvFile(name)
	if f == nil {
		return
	}
	fmt.Fprintln(f, "minute,background,active,total,migrating")
	for _, s := range samples {
		mig := 0
		if s.Migrating {
			mig = 1
		}
		fmt.Fprintf(f, "%d,%.3f,%.3f,%.3f,%d\n",
			int64(s.At/sim.Minute), s.Background, s.Active, s.Total(), mig)
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
		if s.Migrating {
			mig = "yes"
		}
		tab.AddRowf("%dmin\t%.1f\t%.1f\t%.1f\t%s",
			int64(s.At/sim.Minute), s.Background, s.Active, s.Total(), mig)
	}
	tab.Render(w)

	baseTotal := run.baseBGEnergy + run.activeEnergy
	techTotal := run.techBGEnergy + run.activeEnergy + run.migEnergy
	saving := 1 - techTotal/baseTotal

	fmt.Fprintf(w, "\n(b) energy: baseline %.3g, technique %.3g units-s\n",
		baseTotal/1e9, techTotal/1e9)
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
	b := power.Breakdown{
		BaselineBackground: run.baseBGEnergy,
		BaselineActive:     run.activeEnergy,
		TechBackground:     run.techBGEnergy,
		TechActive:         run.activeEnergy + run.migEnergy,
	}

	tab := metrics.NewTable("component", "baseline (units-s)", "power-down (units-s)", "reduction")
	tab.AddRowf("background\t%.3g\t%.3g\t%s",
		b.BaselineBackground/1e9, b.TechBackground/1e9, pct(b.BackgroundSaving()))
	tab.AddRowf("active\t%.3g\t%.3g\t%s",
		b.BaselineActive/1e9, b.TechActive/1e9, pct(1-b.TechActive/b.BaselineActive))
	tab.AddRowf("total\t%.3g\t%.3g\t%s",
		(b.BaselineBackground+b.BaselineActive)/1e9,
		(b.TechBackground+b.TechActive)/1e9, pct(b.TotalSaving()))
	tab.Render(w)

	res.Metrics["background_saving"] = b.BackgroundSaving()
	res.Metrics["total_saving"] = b.TotalSaving()
	res.footer(w)
	return res
}
