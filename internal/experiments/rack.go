package experiments

import (
	"fmt"
	"io"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/fault"
	"dtl/internal/metrics"
	"dtl/internal/rack"
	"dtl/internal/sim"
	"dtl/internal/vmtrace"
)

// defaultRackExpanders is the rack size when Options.Rack is unset: four
// pdGeometry expanders (1.5 TiB pooled) behind one switch.
const defaultRackExpanders = 4

// newRackTarget builds an n-expander rack under o's policy overrides, every
// VM arrival placed through the rack's global allocator under fcfg's policy.
func newRackTarget(o Options, fcfg rack.FabricConfig, n int) *rackTarget {
	ecfg := core.DefaultConfig(pdGeometry())
	o.Policy.apply(&ecfg)
	f, err := rack.New(rack.Config{Expanders: n, Expander: ecfg, Fabric: fcfg})
	if err != nil {
		panic(err)
	}
	tgt := &rackTarget{f: f, alloc: rack.NewAllocator(f)}
	for _, e := range f.Expanders() {
		tgt.ds = append(tgt.ds, e.DTL)
	}
	return tgt
}

// runRackSchedule runs the 6-hour schedule over the rack, with the fabric
// in the access path, and collects the fabric's outcomes.
func runRackSchedule(o Options, tgt *rackTarget) scheduleRun {
	run := runSchedule(o, tgt)

	run.policy = tgt.f.Config().Fabric.Policy
	run.alloc = tgt.alloc.Stats()
	run.accessLatNs += run.alloc.VerifyLatNs
	reg := tgt.f.Registry()
	run.crossAccesses = reg.Counter("rack.fabric.cross_accesses").Value()
	run.fabricStallNs = reg.Counter("rack.fabric.stall_ns").Value()
	run.fabricBytes = reg.Counter("rack.fabric.bytes_copied").Value()
	run.fabricCopies = reg.Counter("rack.fabric.copies").Value()
	run.fabricEnergy = tgt.ds[0].Device().Power().ActivePowerPerGBs * float64(run.fabricBytes)
	return run
}

// rackTarget is a rack.Fabric of expanders under the schedule, every
// placement made by its allocator.
type rackTarget struct {
	f     *rack.Fabric
	alloc *rack.Allocator
	ds    []*core.DTL // the expanders' DTLs, in expander order
}

func (t *rackTarget) dtls() []*core.DTL                     { return t.ds }
func (t *rackTarget) free(vm core.VMID, now sim.Time) error { return t.alloc.Free(vm, now) }

func (t *rackTarget) telemetry(o Options, horizon sim.Time) *runTelemetry {
	return o.telemetryForDTLs(t.ds, t.f, vmtrace.Interval, horizon)
}

// startFaults arms the injectors on the rack's one engine, so a single
// RunUntil delivers every expander's faults in total time order.
func (t *rackTarget) startFaults(spec fault.Spec, horizon sim.Time) (*sim.Engine, []*fault.Injector, error) {
	injs, err := t.f.StartFaults(spec, horizon)
	return t.f.Engine(), injs, err
}

func (t *rackTarget) place(vm core.VMID, host core.HostID, bytes int64, now sim.Time) error {
	_, err := t.alloc.Place(vm, host, bytes, now)
	return err
}

// serve issues one read probe per live VM, paying fabric latency when the
// VM was packed off its affinity expander, then runs one consolidation
// pass. Consolidation goes last: its verify probes execute at the
// copy-completion time (now + queue + transfer), which must stay ahead of
// every event already recorded at now.
func (t *rackTarget) serve(live []core.VMID, now sim.Time, run *scheduleRun) {
	for _, id := range live {
		x := t.locate(id)
		addrs, err := t.ds[x].VMAddresses(id)
		if err != nil {
			panic(err)
		}
		lat, err := t.read(id, x, addrs[0], now)
		if err != nil {
			run.probeFailures++
			continue
		}
		run.accesses++
		run.accessLatNs += int64(lat)
	}
	moved, err := t.alloc.Consolidate(now)
	if err != nil {
		panic(err)
	}
	run.consolidated += moved
}

func (t *rackTarget) locate(vm core.VMID) int {
	x, ok := t.alloc.Lookup(vm)
	if !ok {
		panic(fmt.Sprintf("experiments: live vm %d has no placement", vm))
	}
	return x
}

func (t *rackTarget) read(vm core.VMID, x int, a dram.HPA, now sim.Time) (sim.Time, error) {
	res, flat, err := t.f.Access(vm, x, a, false, now)
	return res.TotalLat() + flat, err
}

func (t *rackTarget) bytesMoved() int64 {
	return t.f.BytesMigrated() + t.f.Registry().Counter("rack.fabric.bytes_copied").Value()
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
	altCfg.Policy = rack.PolicyPack
	if fcfg.Policy == rack.PolicyPack {
		altCfg.Policy = rack.PolicySpread
	}

	fmt.Fprintf(w, "rack: %d expanders x %s, fabric hop %v, link %.0f GB/s, headline policy %s\n\n",
		n, dram.FormatBytes(pdGeometry().TotalBytes()), fcfg.HopLatency, fcfg.BandwidthGBs, fcfg.Policy)

	head := runRackSchedule(o, newRackTarget(o, fcfg, n))
	alt := runRackSchedule(o.withoutTelemetry(), newRackTarget(o, altCfg, n))

	writePowerTimeline(o, "rack_power_timeline", head.samples)

	fmt.Fprintf(w, "(a) per-expander rollup, %s policy\n", head.policy)
	tab := metrics.NewTable("expander", "mean active ranks/ch", "bg energy (units-s)", "allocated at end", "live VMs")
	for x, e := range head.perDTL {
		tab.AddRowf("x%d\t%.2f\t%.3g\t%s\t%d",
			x, e.meanActiveRanks, e.bgEnergy/1e9, dram.FormatBytes(e.endAllocBytes), e.endLiveVMs)
	}
	tab.Render(w)

	fmt.Fprintln(w, "\n(b) policy A/B on the identical arrival curve")
	writePolicyAB(w, head, alt)

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

	res.Metrics["energy_proxy_pack"] = pack.energyProxy()
	res.Metrics["energy_proxy_spread"] = spread.energyProxy()
	res.Metrics["pack_vs_spread_saving"] = delta
	res.Metrics["energy_saving"] = head.energySaving()
	res.Metrics["mean_active_ranks"] = head.meanActiveRanks
	res.Metrics["cross_access_share"] = head.crossShare()
	res.Metrics["fabric_stall_ns"] = float64(head.fabricStallNs)
	res.Metrics["fabric_bytes"] = float64(head.fabricBytes)
	res.Metrics["rack_migrations"] = float64(head.alloc.Migrations)
	res.Metrics["vms_shed"] = float64(head.shedVMs)
	res.Metrics["foreground_lat_ns"] = float64(head.accessLatNs)
	res.Metrics["bytes_migrated"] = float64(head.bytesMigrated)
	res.footer(w)
	return res
}

// writePolicyAB renders the rack's policy A/B table, one row per run. The
// shed column is the schedule's count of refused arrivals; the allocator's
// Stats.Shed counts the same refusals.
func writePolicyAB(w io.Writer, runs ...scheduleRun) {
	tab := metrics.NewTable("policy", "bg energy", "active", "migration", "fabric", "total (units-s)", "cross-access share", "shed")
	for _, r := range runs {
		tab.AddRowf("%s\t%.3g\t%.3g\t%.3g\t%.3g\t%.3g\t%s\t%d",
			r.policy, r.techBGEnergy/1e9, r.activeEnergy/1e9, r.migEnergy/1e9,
			r.fabricEnergy/1e9, r.energyProxy()/1e9, pct(r.crossShare()), r.shedVMs)
	}
	tab.Render(w)
}
