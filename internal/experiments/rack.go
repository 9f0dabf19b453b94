package experiments

import (
	"errors"
	"fmt"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/fault"
	"dtl/internal/metrics"
	"dtl/internal/power"
	"dtl/internal/rack"
	"dtl/internal/sim"
	"dtl/internal/trace"
	"dtl/internal/vmtrace"
)

// defaultRackExpanders is the rack size when Options.Rack is unset: four
// pdGeometry expanders (1.5 TiB pooled) behind one switch.
const defaultRackExpanders = 4

// rackExpSummary is one expander's rollup over the run.
type rackExpSummary struct {
	meanActiveRanks float64 // mean active ranks per channel
	bgEnergy        float64 // background energy (units x ns)
	endAllocBytes   int64
	endLiveVMs      int
}

// rackRun is one policy leg of the rack schedule.
type rackRun struct {
	horizon sim.Time
	policy  rack.Policy

	baseBGEnergy float64 // all-standby baseline (units x ns)
	techBGEnergy float64
	activeEnergy float64
	migEnergy    float64 // intra-expander migration energy
	fabricEnergy float64 // inter-expander copy energy

	meanActiveRanks float64 // rack-wide mean active ranks per channel
	perExp          []rackExpSummary
	samples         []power.Sample
	migrationSpans  int

	accesses      int64 // foreground probe accesses issued
	accessLatNs   int64 // their summed latency, fabric stall and verify probes included
	crossAccesses int64
	fabricStallNs int64
	fabricBytes   int64
	fabricCopies  int64
	bytesMigrated int64 // intra-expander
	alloc         rack.AllocStats
	consolidated  int // VMs moved by consolidation passes

	// Reliability outcomes, populated when Options.FaultSpec is set.
	faultStats     fault.Stats
	degradedProbes int
	probeFailures  int
	retiredRanks   int
	shedVMs        int
	health         map[string]float64
}

// energyProxy is the leg's total technique energy: background residency plus
// foreground active energy plus both migration components.
func (r rackRun) energyProxy() float64 {
	return r.techBGEnergy + r.activeEnergy + r.migEnergy + r.fabricEnergy
}

// runRackSchedule drives the 6-hour Azure-like schedule over an n-expander
// rack under one placement policy. The loop mirrors runPowerDownSchedule with
// the fabric in the access path: every interval processes fault events,
// arrivals and departures (through the global allocator), issues one read
// probe per live VM (paying fabric latency when the VM was packed off its
// affinity expander), and runs one consolidation pass last — consolidation's
// verify-after-copy probes land at the copy-completion time, after the
// interval's foreground probes, keeping every rank timeline monotonic.
func runRackSchedule(o Options, fcfg rack.FabricConfig, n int) rackRun {
	g := pdGeometry()
	ecfg := core.DefaultConfig(g)
	o.Policy.apply(&ecfg)
	f, err := rack.New(rack.Config{Expanders: n, Expander: ecfg, Fabric: fcfg})
	if err != nil {
		panic(err)
	}
	alloc := rack.NewAllocator(f)

	workloads := make([]string, 0, 10)
	for _, p := range trace.CloudSuite() {
		workloads = append(workloads, p.Name)
	}
	genCfg := vmtrace.DefaultGenConfig()
	genCfg.Seed = o.Seed
	genCfg.NumVMs = o.scaled(400, 120) * n
	genCfg.Workloads = workloads
	vms := vmtrace.Generate(genCfg)
	srv := vmtrace.Server{VCPUs: 48 * n, MemBytes: int64(n) * g.TotalBytes()}
	events, _, err := vmtrace.Schedule(vms, srv, genCfg.Horizon)
	if err != nil {
		panic(err)
	}

	run := rackRun{horizon: genCfg.Horizon, policy: fcfg.Policy, perExp: make([]rackExpSummary, n)}
	rt := o.telemetryForFabric(f, vmtrace.Interval, genCfg.Horizon)

	var injs []*fault.Injector
	faults := o.FaultSpec != ""
	if faults {
		spec, err := fault.Parse(o.FaultSpec)
		if err != nil {
			panic(err)
		}
		injs, err = f.StartFaults(spec, genCfg.Horizon)
		if err != nil {
			panic(err)
		}
	}
	shed := map[core.VMID]bool{}
	scrubPerInterval := int(g.TotalSegments() * int64(vmtrace.Interval) / int64(sim.Hour))

	pm := f.Expander(0).DTL.Device().Power()
	meter := power.NewMeter(pm)
	live := map[core.VMID]vmtrace.VM{}
	var liveIDs []core.VMID // reused scratch for deterministic iteration
	ei := 0
	rankSums := make([]float64, n)
	var intervals int
	var prevMigBytes int64

	for t := sim.Time(0); t <= genCfg.Horizon; t += vmtrace.Interval {
		o.checkCanceled()
		// Fault events for every expander share the rack engine, so one
		// RunUntil delivers them in total time order across the rack.
		f.Engine().RunUntil(t)
		if faults {
			if pn, lat := f.ProbeDegraded(t); pn > 0 {
				run.degradedProbes += pn
				run.accessLatNs += int64(lat)
			}
		}
		for ei < len(events) && events[ei].At <= t {
			ev := events[ei]
			ei++
			id := core.VMID(ev.VM.ID)
			if ev.Depart {
				if shed[id] {
					delete(shed, id)
					continue
				}
				if err := alloc.Free(id, t); err != nil {
					panic(err)
				}
				delete(live, id)
			} else {
				if _, err := alloc.Place(id, core.HostID(ev.VM.ID%ecfg.MaxHosts), ev.VM.MemBytes, t); err != nil {
					if errors.Is(err, core.ErrOutOfCapacity) {
						run.shedVMs++
						shed[id] = true
						continue
					}
					panic(err)
				}
				live[id] = ev.VM
			}
		}
		if faults {
			f.Tick(t)
			for _, e := range f.Expanders() {
				if _, err := e.DTL.Scrubber().Run(t, scrubPerInterval); err != nil {
					panic(fmt.Sprintf("experiments: rack scrub x%d at %v: %v", e.ID, t, err))
				}
			}
		}

		// Foreground probe: one read per live VM in VM-id order (Access has
		// model side effects, so map order would leak into the artifacts).
		// A packed VM away from its affinity expander pays the fabric here.
		var bw float64
		liveIDs = sortedLive(live, liveIDs)
		for _, id := range liveIDs {
			bw += vmBandwidthGBs(live[id])
			x, ok := alloc.Lookup(id)
			if !ok {
				panic(fmt.Sprintf("experiments: live vm %d has no placement", id))
			}
			addrs, err := f.Expander(x).DTL.VMAddresses(id)
			if err != nil {
				panic(err)
			}
			res, flat, err := f.Access(id, x, addrs[0], false, t)
			if err != nil {
				run.probeFailures++
				continue
			}
			run.accesses++
			run.accessLatNs += int64(res.TotalLat() + flat)
		}

		// Consolidation runs last in the interval: its verify probes execute
		// at the copy-completion time (now + queue + transfer), which must
		// stay ahead of every event already recorded at t.
		moved, err := alloc.Consolidate(t)
		if err != nil {
			panic(err)
		}
		run.consolidated += moved

		var bg float64
		for x, e := range f.Expanders() {
			bg += e.DTL.Device().BackgroundPowerNow()
			rankSums[x] += float64(e.DTL.ActiveRanksPerChannel())
		}
		migBytes := f.BytesMigrated() + f.Registry().Counter("rack.fabric.bytes_copied").Value()
		migrating := migBytes > prevMigBytes
		if migrating {
			run.migrationSpans++
		}
		prevMigBytes = migBytes
		meter.Record(t, bg, pm.Active(bw), migrating)
		intervals++
		rt.tick(t)
	}

	if faults {
		// Zero-data-loss check, rack-wide: every surviving VM's memory must
		// still be readable wherever the allocator left it.
		for _, id := range sortedLive(live, liveIDs) {
			x, ok := alloc.Lookup(id)
			if !ok {
				panic(fmt.Sprintf("experiments: live vm %d has no placement", id))
			}
			addrs, err := f.Expander(x).DTL.VMAddresses(id)
			if err != nil {
				panic(err)
			}
			for _, a := range addrs {
				res, flat, err := f.Access(id, x, a, false, genCfg.Horizon)
				if err != nil {
					run.probeFailures++
					continue
				}
				run.accessLatNs += int64(res.TotalLat() + flat)
			}
		}
		if err := f.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("experiments: rack invariants violated after fault run: %v", err))
		}
		for _, inj := range injs {
			st := inj.Stats()
			run.faultStats.CorrectableEvents += st.CorrectableEvents
			run.faultStats.CorrectableErrors += st.CorrectableErrors
			run.faultStats.UncorrectableEvents += st.UncorrectableEvents
			run.faultStats.WakeFaultsArmed += st.WakeFaultsArmed
			run.faultStats.RankKills += st.RankKills
			run.faultStats.PSUEvents += st.PSUEvents
		}
		run.health = map[string]float64{}
		for _, e := range f.Expanders() {
			run.retiredRanks += len(e.DTL.RetiredRanks())
			for _, name := range []string{"storms", "auto_retires", "retires_deferred",
				"retire_retries", "retires_abandoned", "fault_events"} {
				v, _ := e.DTL.Registry().Value("core.health." + name)
				run.health[name] += v
			}
		}
	}

	if err := rt.finish(genCfg.Horizon); err != nil {
		panic(err)
	}
	meter.FinishAt(genCfg.Horizon)
	f.AccountUpTo(genCfg.Horizon)

	st, sr, mp := f.BackgroundEnergy()
	run.techBGEnergy = st + sr + mp
	run.baseBGEnergy = float64(n) * float64(g.TotalRanks()) * pm.StandbyPower * float64(genCfg.Horizon)
	_, act, _ := meter.Energy()
	run.activeEnergy = act
	run.bytesMigrated = f.BytesMigrated()
	run.migEnergy = pm.ActivePowerPerGBs * float64(run.bytesMigrated)
	run.samples = meter.Samples()
	run.alloc = alloc.Stats()
	run.accessLatNs += run.alloc.VerifyLatNs

	reg := f.Registry()
	run.crossAccesses = reg.Counter("rack.fabric.cross_accesses").Value()
	run.fabricStallNs = reg.Counter("rack.fabric.stall_ns").Value()
	run.fabricBytes = reg.Counter("rack.fabric.bytes_copied").Value()
	run.fabricCopies = reg.Counter("rack.fabric.copies").Value()
	run.fabricEnergy = pm.ActivePowerPerGBs * float64(run.fabricBytes)

	var rackRankSum float64
	for x := range run.perExp {
		e := f.Expander(x)
		est, esr, emp := e.DTL.Device().BackgroundEnergy()
		run.perExp[x] = rackExpSummary{
			meanActiveRanks: rankSums[x] / float64(intervals),
			bgEnergy:        est + esr + emp,
			endAllocBytes:   e.DTL.AllocatedBytes(),
			endLiveVMs:      e.DTL.LiveVMs(),
		}
		rackRankSum += rankSums[x]
	}
	run.meanActiveRanks = rackRankSum / float64(intervals*n)
	return run
}

// Rack runs the rack-scale A/B: the same 6-hour arrival curve placed over an
// N-expander rack under the configured policy (the headline leg, which owns
// every telemetry artifact) and under the opposite policy (a silent leg), and
// compares their energy proxies. Packing concentrates VMs so whole expanders
// power down — the paper's §3.3 rank-level mechanism lifted to rack scale —
// at the price of fabric latency on every access to a packed-away VM.
func Rack(o Options) Result {
	res := newResult("rack", "Rack-scale fabric: pack vs spread placement over N expanders",
		"extension of §3.3: placement density, not just rank drains, sets the background-power floor")
	w := o.out()
	res.header(w)

	n := o.Rack
	if n == 0 {
		n = defaultRackExpanders
	}
	fcfg, err := rack.ParseFabric(o.Fabric)
	if err != nil {
		panic(err)
	}
	altCfg := fcfg
	if fcfg.Policy == rack.PolicyPack {
		altCfg.Policy = rack.PolicySpread
	} else {
		altCfg.Policy = rack.PolicyPack
	}

	fmt.Fprintf(w, "rack: %d expanders x %s, fabric hop %v, link %.0f GB/s, headline policy %s\n\n",
		n, dram.FormatBytes(pdGeometry().TotalBytes()), fcfg.HopLatency, fcfg.BandwidthGBs, fcfg.Policy)

	head := runRackSchedule(o, fcfg, n)
	alt := runRackSchedule(o.withoutTelemetry(), altCfg, n)

	writePowerTimeline(o, "rack_power_timeline", head.samples)

	fmt.Fprintf(w, "(a) per-expander rollup, %s policy\n", head.policy)
	tab := metrics.NewTable("expander", "mean active ranks/ch", "bg energy (units-s)", "allocated at end", "live VMs")
	for x, e := range head.perExp {
		tab.AddRowf("x%d\t%.2f\t%.3g\t%s\t%d",
			x, e.meanActiveRanks, e.bgEnergy/1e9, dram.FormatBytes(e.endAllocBytes), e.endLiveVMs)
	}
	tab.Render(w)

	runs := []rackRun{head, alt}
	fmt.Fprintln(w, "\n(b) policy A/B on the identical arrival curve")
	tab = metrics.NewTable("policy", "bg energy", "active", "migration", "fabric", "total (units-s)", "cross-access share", "shed")
	for _, r := range runs {
		share := 0.0
		if r.accesses > 0 {
			share = float64(r.crossAccesses) / float64(r.accesses)
		}
		tab.AddRowf("%s\t%.3g\t%.3g\t%.3g\t%.3g\t%.3g\t%s\t%d",
			r.policy, r.techBGEnergy/1e9, r.activeEnergy/1e9, r.migEnergy/1e9,
			r.fabricEnergy/1e9, r.energyProxy()/1e9, pct(share), r.shedVMs+int(r.alloc.Shed))
	}
	tab.Render(w)

	pack, spread := head, alt
	if head.policy != rack.PolicyPack {
		pack, spread = alt, head
	}
	delta := 1 - pack.energyProxy()/spread.energyProxy()
	fmt.Fprintf(w, "\npack vs spread energy proxy: %.4g vs %.4g units-s (%s saved by packing)\n",
		pack.energyProxy()/1e9, spread.energyProxy()/1e9, pct(delta))
	fmt.Fprintf(w, "headline leg: %d fabric copies moved %s (stall %s total over %d cross accesses); %d VMs consolidated\n",
		head.fabricCopies, dram.FormatBytes(head.fabricBytes),
		sim.Time(head.fabricStallNs), head.crossAccesses, head.consolidated)
	if o.FaultSpec != "" {
		fmt.Fprintf(w, "faults: %d rank kills across the rack, %d ranks retired, %d degraded probes, %d probe failures\n",
			head.faultStats.RankKills, head.retiredRanks, head.degradedProbes, head.probeFailures)
		res.Metrics["ranks_retired"] = float64(head.retiredRanks)
		res.Metrics["probe_failures"] = float64(head.probeFailures)
	}

	headShare := 0.0
	if head.accesses > 0 {
		headShare = float64(head.crossAccesses) / float64(head.accesses)
	}
	res.Metrics["energy_proxy_pack"] = pack.energyProxy()
	res.Metrics["energy_proxy_spread"] = spread.energyProxy()
	res.Metrics["pack_vs_spread_saving"] = delta
	res.Metrics["energy_saving"] = 1 - head.energyProxy()/(head.baseBGEnergy+head.activeEnergy)
	res.Metrics["mean_active_ranks"] = head.meanActiveRanks
	res.Metrics["cross_access_share"] = headShare
	res.Metrics["fabric_stall_ns"] = float64(head.fabricStallNs)
	res.Metrics["fabric_bytes"] = float64(head.fabricBytes)
	res.Metrics["rack_migrations"] = float64(head.alloc.Migrations)
	res.Metrics["vms_shed"] = float64(head.shedVMs)
	res.Metrics["foreground_lat_ns"] = float64(head.accessLatNs)
	res.Metrics["bytes_migrated"] = float64(head.bytesMigrated)
	res.footer(w)
	return res
}
