package experiments

import (
	"errors"
	"fmt"
	"sort"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/fault"
	"dtl/internal/rack"
	"dtl/internal/sim"
	"dtl/internal/trace"
	"dtl/internal/vmtrace"
)

// scheduleTarget is the memory the 6-hour schedule loop drives: one
// core.DTL (fig12, fig13, faults) or a rack.Fabric of them behind its
// global allocator (rack). The loop does the rest itself, over the
// target's DTLs in index order.
type scheduleTarget interface {
	dtls() []*core.DTL // identically configured
	telemetry(o Options, horizon sim.Time) *runTelemetry
	// startFaults arms spec's injectors and returns the engine they run on.
	startFaults(spec fault.Spec, horizon sim.Time) (*sim.Engine, []*fault.Injector, error)
	place(vm core.VMID, host core.HostID, bytes int64, now sim.Time) error
	free(vm core.VMID, now sim.Time) error
	// serve does the interval's foreground work after arrivals and
	// departures, given the live VMs in id order.
	serve(live []core.VMID, now sim.Time, run *scheduleRun)
	locate(vm core.VMID) int // index of the DTL holding vm
	// read serves one read of a on DTL x for vm; the latency includes any
	// fabric cost.
	read(vm core.VMID, x int, a dram.HPA, now sim.Time) (sim.Time, error)
	bytesMoved() int64 // data migrated so far, fabric copies included
}

// dtlSummary is one DTL's rollup over a schedule run.
type dtlSummary struct {
	meanActiveRanks float64 // mean active ranks per channel
	bgEnergy        float64 // background energy (units x ns)
	endAllocBytes   int64
	endLiveVMs      int
}

// powerSample is one interval's point on the technique's runtime power
// timeline (Fig. 12a), in normalized units.
type powerSample struct {
	at                 sim.Time
	background, active float64
	migrating          bool // segment migration was in flight
}

// scheduleRun is the outcome of one schedule run on either target.
type scheduleRun struct {
	horizon sim.Time

	baseBGEnergy float64 // all-standby baseline (units x ns)
	techBGEnergy float64
	activeEnergy float64 // identical foreground active energy in both
	migEnergy    float64 // intra-device migration energy
	fabricEnergy float64 // inter-expander copy energy (rack only)

	meanActiveRanks float64 // mean active ranks per channel over every DTL
	perDTL          []dtlSummary
	samples         []powerSample // technique timeline, one per interval
	migrationSpans  int           // intervals with migration activity
	bytesMigrated   int64         // intra-device

	// accessLatNs sums the latency of every read the run issued: degraded
	// probes, foreground probes, the zero-data-loss probe and (rack)
	// consolidation's verify probes.
	accessLatNs    int64
	accesses       int64 // foreground probe accesses issued (rack only)
	degradedProbes int   // probes issued against failed-but-live ranks
	shedVMs        int   // allocations refused under degraded capacity
	probeFailures  int   // reads that failed (must stay 0)
	retiredRanks   int
	health         map[string]float64 // core.health.* counters, summed

	// Reliability outcomes, populated when Options.FaultSpec is set.
	faultStats                              fault.Stats
	verifyFailures, reroutes, verifyGiveups int64 // migration verify outcomes

	// Rack outcomes, set by runRackSchedule.
	policy                                                  rack.Policy
	alloc                                                   rack.AllocStats
	consolidated                                            int // VMs moved by consolidation passes
	crossAccesses, fabricStallNs, fabricBytes, fabricCopies int64
}

// energyProxy is the run's total technique energy: background residency
// plus foreground active energy plus both migration components.
func (r scheduleRun) energyProxy() float64 {
	return r.techBGEnergy + r.activeEnergy + r.migEnergy + r.fabricEnergy
}

// energySaving is the technique's saving against the all-standby baseline.
func (r scheduleRun) energySaving() float64 {
	return 1 - r.energyProxy()/(r.baseBGEnergy+r.activeEnergy)
}

// crossShare is the share of foreground probes that crossed the fabric.
func (r scheduleRun) crossShare() float64 {
	if r.accesses == 0 {
		return 0
	}
	return float64(r.crossAccesses) / float64(r.accesses)
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

// runSchedule drives the 6-hour Azure-like VM schedule, scaled to the
// target's device count, over tgt. Every interval advances any injected
// faults and probes degraded ranks, places arrivals (shedding what the
// capacity cannot hold) and frees departures, ticks and scrubs under
// faults, lets the target serve, and records power. A fault run ends with
// the zero-data-loss probe: every surviving VM's memory must still read.
func runSchedule(o Options, tgt scheduleTarget) scheduleRun {
	ds := tgt.dtls()
	n := len(ds)
	cfg := ds[0].Config()
	g := cfg.Geometry

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
	horizon := genCfg.Horizon
	events, _, err := vmtrace.Schedule(vms, srv, horizon)
	if err != nil {
		panic(err)
	}

	run := scheduleRun{horizon: horizon, perDTL: make([]dtlSummary, n)}
	rt := tgt.telemetry(o, horizon)

	// With a fault spec, seeded injectors drive device faults on their own
	// virtual-time engine, advanced in lockstep with the schedule clock; the
	// health monitor (driven from Tick below) closes the loop by retiring
	// degraded ranks.
	faults := o.FaultSpec != ""
	var feng *sim.Engine
	var injs []*fault.Injector
	if faults {
		if feng, injs, err = tgt.startFaults(fault.MustParse(o.FaultSpec), horizon); err != nil {
			panic(err)
		}
	}
	shed := map[core.VMID]bool{}
	// A patrol-scrub budget sized to cover each device roughly once per hour.
	scrubPerInterval := int(g.TotalSegments() * int64(vmtrace.Interval) / int64(sim.Hour))

	pm := ds[0].Device().Power()
	// Active energy is a left Riemann sum: each interval's active power
	// holds until the next sample (the paper's 5-minute recomputation).
	var lastAt sim.Time
	var lastActive float64
	live := map[core.VMID]vmtrace.VM{}
	var liveIDs []core.VMID // reused scratch for deterministic iteration
	ei := 0
	rankSums := make([]float64, n)
	var prevMigBytes int64

	for t := sim.Time(0); t <= horizon; t += vmtrace.Interval {
		o.checkCanceled()
		if faults {
			feng.RunUntil(t)
			// Health-plane probe: one read per failed rank still holding live
			// data, BEFORE the event loop and Tick can drain and retire it (a
			// departure's free already processes deferred retirements) — so
			// the attribution ledger observes the degraded-read penalty the
			// tenants are paying.
			for _, d := range ds {
				pn, lat := d.ProbeDegraded(t)
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
					delete(shed, id) // never admitted; nothing to release
					continue
				}
				if err := tgt.free(id, t); err != nil {
					panic(err)
				}
				delete(live, id)
			} else {
				if err := tgt.place(id, core.HostID(ev.VM.ID%cfg.MaxHosts), ev.VM.MemBytes, t); err != nil {
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
			for _, d := range ds {
				d.Tick(t) // completes migrations and drives deferred retirements
			}
			for x, d := range ds {
				if _, err := d.Scrubber().Run(t, scrubPerInterval); err != nil {
					panic(fmt.Sprintf("experiments: scrub of DTL %d at %v: %v", x, t, err))
				}
			}
		}

		// Sum in VM-id order: float addition is not associative, so a map
		// iteration here would let rounding differ between identical runs.
		liveIDs = sortedLive(live, liveIDs)
		var bw float64
		for _, id := range liveIDs {
			bw += vmBandwidthGBs(live[id])
		}
		tgt.serve(liveIDs, t, &run)

		var bg float64
		for x, d := range ds {
			bg += d.Device().BackgroundPowerNow()
			rankSums[x] += float64(d.ActiveRanksPerChannel())
		}
		migBytes := tgt.bytesMoved()
		migrating := migBytes > prevMigBytes
		if migrating {
			run.migrationSpans++
		}
		prevMigBytes = migBytes
		active := pm.Active(bw)
		run.activeEnergy += lastActive * float64(t-lastAt)
		lastAt, lastActive = t, active
		run.samples = append(run.samples, powerSample{at: t, background: bg, active: active, migrating: migrating})
		rt.tick(t)
	}
	if faults {
		// Zero-data-loss check: every surviving VM's memory must still be
		// readable wherever it lives (retired ranks were drained; a failed
		// rank not yet drained still serves reads in degraded mode).
		// Probe in VM-id order: reads have model side effects (SMC fills,
		// self-refresh wakes), so map order here would leak into the trace.
		for _, id := range sortedLive(live, liveIDs) {
			x := tgt.locate(id)
			addrs, err := ds[x].VMAddresses(id)
			if err != nil {
				panic(err)
			}
			for _, a := range addrs {
				lat, err := tgt.read(id, x, a, horizon)
				if err != nil {
					run.probeFailures++
					continue
				}
				run.accessLatNs += int64(lat)
			}
		}
		for _, inj := range injs {
			fs := inj.Stats()
			run.faultStats.CorrectableEvents += fs.CorrectableEvents
			run.faultStats.CorrectableErrors += fs.CorrectableErrors
			run.faultStats.UncorrectableEvents += fs.UncorrectableEvents
			run.faultStats.WakeFaultsArmed += fs.WakeFaultsArmed
			run.faultStats.RankKills += fs.RankKills
			run.faultStats.PSUEvents += fs.PSUEvents
		}
	}
	if err := rt.finish(horizon); err != nil {
		panic(err)
	}
	run.activeEnergy += lastActive * float64(horizon-lastAt)

	intervals := len(run.samples)
	run.health = map[string]float64{}
	var st, sr, mp, rankSum float64
	for x, d := range ds {
		if faults {
			if err := d.CheckInvariants(); err != nil {
				panic(fmt.Sprintf("experiments: DTL %d invariants violated after fault run: %v", x, err))
			}
			ms := d.Migrator().Stats()
			run.verifyFailures += ms.VerifyFailures
			run.reroutes += ms.Reroutes
			run.verifyGiveups += ms.VerifyGiveups
		}
		run.retiredRanks += len(d.RetiredRanks())
		for _, name := range []string{"storms", "auto_retires", "retires_deferred",
			"retire_retries", "retires_abandoned", "fault_events"} {
			v, _ := d.Registry().Value("core.health." + name)
			run.health[name] += v
		}
		d.Device().AccountUpTo(horizon)
		dst, dsr, dmp := d.Device().BackgroundEnergy()
		st += dst
		sr += dsr
		mp += dmp
		run.perDTL[x] = dtlSummary{
			meanActiveRanks: rankSums[x] / float64(intervals),
			bgEnergy:        dst + dsr + dmp,
			endAllocBytes:   d.AllocatedBytes(),
			endLiveVMs:      d.LiveVMs(),
		}
		rankSum += rankSums[x]
		run.bytesMigrated += d.Stats().BytesMigrated
	}
	run.techBGEnergy = st + sr + mp
	run.baseBGEnergy = float64(n) * float64(g.TotalRanks()) * pm.StandbyPower * float64(horizon)
	// Migration energy: moving B bytes at any bandwidth W costs
	// slope*W power for B/W ns, i.e. slope*B units x ns regardless of W.
	run.migEnergy = pm.ActivePowerPerGBs * float64(run.bytesMigrated)
	run.meanActiveRanks = rankSum / float64(intervals*n)
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

// deviceTarget is a single DTL device under the schedule. The device is
// sized for the schedule and only injected faults shrink it, so until
// faults are armed, a VM it cannot place is a bug, not load to shed.
type deviceTarget struct {
	d       *core.DTL
	faulted bool // startFaults armed an injector
}

func (t *deviceTarget) dtls() []*core.DTL                         { return []*core.DTL{t.d} }
func (t *deviceTarget) free(vm core.VMID, now sim.Time) error     { return t.d.DeallocateVM(vm, now) }
func (t *deviceTarget) serve([]core.VMID, sim.Time, *scheduleRun) {}
func (t *deviceTarget) bytesMoved() int64                         { return t.d.Stats().BytesMigrated }
func (t *deviceTarget) locate(core.VMID) int                      { return 0 }

func (t *deviceTarget) telemetry(o Options, horizon sim.Time) *runTelemetry {
	return o.telemetryFor(t.d, vmtrace.Interval, horizon)
}

func (t *deviceTarget) startFaults(spec fault.Spec, horizon sim.Time) (*sim.Engine, []*fault.Injector, error) {
	eng := sim.NewEngine()
	inj, err := fault.NewInjector(spec, t.d.Device(), eng)
	if err != nil {
		return nil, nil, err
	}
	inj.Start(horizon)
	t.faulted = true
	return eng, []*fault.Injector{inj}, nil
}

func (t *deviceTarget) place(vm core.VMID, host core.HostID, bytes int64, now sim.Time) error {
	_, err := t.d.AllocateVM(vm, host, bytes, now)
	if err != nil && !t.faulted {
		panic(err)
	}
	return err
}

func (t *deviceTarget) read(_ core.VMID, _ int, a dram.HPA, now sim.Time) (sim.Time, error) {
	res, err := t.d.Access(a, false, now)
	return res.TotalLat(), err
}
