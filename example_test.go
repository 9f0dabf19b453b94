package dtl_test

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"dtl"
	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/experiments"
	"dtl/internal/fault"
	"dtl/internal/metrics"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
	"dtl/internal/vmtrace"
)

// must returns v, or ends the example on a non-nil err.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check ends the example on a non-nil err.
func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// exampleConfig is a small 4 GiB device so the examples run instantly.
func exampleConfig() core.Config {
	cfg := core.DefaultConfig(dtl.Geometry{
		Channels:        4,
		RanksPerChannel: 4,
		BanksPerRank:    16,
		SegmentBytes:    2 << 20,
		RankBytes:       256 << 20,
	})
	cfg.AUBytes = 64 << 20
	return cfg
}

// Open a device, allocate memory for a VM, and issue a host load.
func Example() {
	dev := must(dtl.Open(dtl.WithConfig(exampleConfig())))
	alloc := must(dev.AllocateVM(1, 0, 128<<20, 0))
	fmt.Printf("allocated %d MiB in %d allocation units\n",
		alloc.Bytes>>20, len(alloc.AUBases))

	lat := must(dev.Read(alloc.AUBases[0], 1000))
	fmt.Printf("first read took %v (full translation walk + CXL link)\n", lat)
	// Output:
	// allocated 128 MiB in 2 allocation units
	// first read took 384ns (full translation walk + CXL link)
}

// Deallocation triggers the rank-level power-down check: idle rank groups
// enter maximum power saving mode.
func ExampleDevice_DeallocateVM() {
	dev := must(dtl.Open(dtl.WithConfig(exampleConfig())))
	must(dev.AllocateVM(1, 0, 256<<20, 0))
	check(dev.DeallocateVM(1, 1000))
	snap := dev.PowerSnapshot(1000)
	fmt.Printf("active ranks per channel: %d\n", snap.ActiveRanksPerChannel)
	fmt.Printf("rank groups in MPSM: %d\n", snap.PoweredDownGroups)
	// Output:
	// active ranks per channel: 1
	// rank groups in MPSM: 3
}

// The Table 5 metadata model: DTL's structures are a vanishing fraction of
// device capacity.
func ExampleDevice_MetadataSizes() {
	// The paper's 384 GB evaluation point (Table 5).
	dev := must(dtl.Open(dtl.WithGeometry(dtl.Geometry{
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 << 20,
		RankBytes:       12 << 30,
	})))
	sizes := dev.MetadataSizes()
	fmt.Printf("L1 segment mapping cache: %d bytes\n", sizes.L1SMCBytes)
	frac := float64(sizes.TotalDRAM()) / float64(dev.Geometry().TotalBytes())
	fmt.Printf("DRAM-resident metadata under %.4f%% of capacity: %v\n", 0.01, frac < 0.0001)
	// Output:
	// L1 segment mapping cache: 328 bytes
	// DRAM-resident metadata under 0.0100% of capacity: true
}

// Metadata snapshots survive a controller restart: the restored device
// serves the same host physical addresses.
func ExampleRestore() {
	cfg := exampleConfig()
	dev := must(dtl.Open(dtl.WithConfig(cfg)))
	alloc := must(dev.AllocateVM(1, 0, 128<<20, 0))

	var checkpoint bytes.Buffer
	check(dev.SaveMetadata(&checkpoint))

	restored := must(dtl.Restore(&checkpoint, dtl.WithConfig(cfg)))
	must(restored.Read(alloc.AUBases[0], 1000))
	fmt.Println("restored device serves the VM's addresses:", restored.LiveVMs() == 1)
	// Output:
	// restored device serves the VM's addresses: true
}

// Retiring a failing rank drains it transparently; the host keeps its
// addresses while usable capacity shrinks by one rank.
func ExampleDevice_RetireRank() {
	dev := must(dtl.Open(dtl.WithConfig(exampleConfig())))
	alloc := must(dev.AllocateVM(1, 0, 128<<20, 0))
	before := dev.UsableBytes()
	check(dev.RetireRank(0, 0, 1000))
	fmt.Printf("capacity lost: %d MiB\n", (before-dev.UsableBytes())>>20)
	must(dev.Read(alloc.AUBases[0], 2000))
	fmt.Println("VM addresses still resolve")
	// Output:
	// capacity lost: 256 MiB
	// VM addresses still resolve
}

// The HPA→DPA path: the segment mapping cache filters translations (a full
// three-level walk on first touch, an L1 SMC hit on repeat), each DPA
// decodes to its Figure 6 channel/rank/index, and host-transparent
// migration changes the physical placement without changing host
// addresses.
func Example_translation() {
	dev := must(dtl.Open(dtl.WithConfig(exampleConfig())))
	d := dev.Core()
	codec := d.Device().Codec()

	alloc := must(dev.AllocateVM(1, 0, 64<<20, 0))
	base := alloc.AUBases[0]

	fmt.Println("HPA -> DPA translation for the first 8 segments:")
	fmt.Println("   (first access: full walk; repeat: L1 SMC hit)")
	now := dtl.Time(0)
	for i := 0; i < 8; i++ {
		hpa := base + dtl.HPA(int64(i)*2<<20)
		now += 1000
		res1 := must(d.Access(dram.HPA(hpa), false, now))
		now += 1000
		res2 := must(d.Access(dram.HPA(hpa), false, now))
		loc := codec.DecodeDSN(codec.SegmentOf(res1.DPA))
		fmt.Printf("  hpa %#010x -> dpa %#011x  ch%d rk%d idx%-4d  walk %v, cached %v\n",
			int64(hpa), int64(res1.DPA), loc.Channel, loc.Rank, loc.Index,
			res1.TranslationLat, res2.TranslationLat)
	}

	fmt.Printf("\nSMC after warm-up: %+v\n", dev.SMCStats())

	// A large neighbor VM straddles our rank and another, and a third small
	// VM pins the other rank. When the large VM leaves, both remaining ranks
	// are nearly empty, so consolidation drains OUR segments into the other
	// rank: the host addresses keep working, but the physical rank changes.
	must(dev.AllocateVM(2, 0, 1920<<20, now))
	must(dev.AllocateVM(3, 0, 64<<20, now))
	now += 1000
	check(dev.DeallocateVM(2, now))
	fmt.Printf("\nafter consolidation (%d segments migrated):\n", dev.Stats().SegmentsMigrated)
	for i := 0; i < 4; i++ {
		hpa := base + dtl.HPA(int64(i)*2<<20)
		now += 1000
		res := must(d.Access(dram.HPA(hpa), false, now))
		loc := codec.DecodeDSN(codec.SegmentOf(res.DPA))
		fmt.Printf("  hpa %#010x -> dpa %#011x  ch%d rk%d idx%-4d (same HPA, possibly new rank)\n",
			int64(hpa), int64(res.DPA), loc.Channel, loc.Rank, loc.Index)
	}
	fmt.Println("\nfinal:", dev.PowerSnapshot(now))
	// Output:
	// HPA -> DPA translation for the first 8 segments:
	//    (first access: full walk; repeat: L1 SMC hit)
	//   hpa 0x0000000000 -> dpa 0x00000000000  ch0 rk0 idx0     walk 129ns, cached 1ns
	//   hpa 0x0000200000 -> dpa 0x00000200000  ch1 rk0 idx0     walk 129ns, cached 1ns
	//   hpa 0x0000400000 -> dpa 0x00000400000  ch2 rk0 idx0     walk 129ns, cached 1ns
	//   hpa 0x0000600000 -> dpa 0x00000600000  ch3 rk0 idx0     walk 129ns, cached 1ns
	//   hpa 0x0000800000 -> dpa 0x00000800000  ch0 rk0 idx1     walk 129ns, cached 1ns
	//   hpa 0x0000a00000 -> dpa 0x00000a00000  ch1 rk0 idx1     walk 129ns, cached 1ns
	//   hpa 0x0000c00000 -> dpa 0x00000c00000  ch2 rk0 idx1     walk 129ns, cached 1ns
	//   hpa 0x0000e00000 -> dpa 0x00000e00000  ch3 rk0 idx1     walk 129ns, cached 1ns
	//
	// SMC after warm-up: {L1Hits:8 L1Misses:8 L2Hits:0 L2Misses:8}
	//
	// after consolidation (32 segments migrated):
	//   hpa 0x0000000000 -> dpa 0x000c0000000  ch0 rk3 idx0    (same HPA, possibly new rank)
	//   hpa 0x0000200000 -> dpa 0x000c0200000  ch1 rk3 idx0    (same HPA, possibly new rank)
	//   hpa 0x0000400000 -> dpa 0x000c0400000  ch2 rk3 idx0    (same HPA, possibly new rank)
	//   hpa 0x0000600000 -> dpa 0x000c0600000  ch3 rk3 idx0    (same HPA, possibly new rank)
	//
	// final: bg=4.82 units, standby=4 selfRefresh=0 mpsm=12, active/ch=1, groupsDown=3
}

// Hotness-aware self-refresh: a VM with a skewed access pattern (a hot head
// plus a mostly quiet tail) runs on a small device. DTL profiles per-rank
// accesses, plans a cold-segment consolidation through the migration table,
// swaps segments, and puts the victim rank of each channel into
// self-refresh. Touching a cold segment wakes its rank.
func ExampleDevice_EnableHotnessAwareSelfRefresh() {
	cfg := exampleConfig()
	// Scaled-down thresholds so the run converges in milliseconds of
	// simulated time (the paper's 0.5 ms / 50 ms assume minutes-long runs).
	cfg.ProfilingWindow = 20_000     // 20 us
	cfg.ProfilingThreshold = 100_000 // 100 us
	dev := must(dtl.Open(dtl.WithConfig(cfg)))

	alloc := must(dev.AllocateVM(1, 0, 2<<30, 0))
	fmt.Printf("allocated %d AUs; active ranks/channel: %d\n",
		len(alloc.AUBases), dev.PowerSnapshot(0).ActiveRanksPerChannel)

	dev.EnableHotnessAwareSelfRefresh(0)

	// 90% of accesses go to the first AU (hot), the rest to a small slice of
	// the remaining AUs (lukewarm). Most of the allocation is never touched,
	// and that is what the victim rank collects.
	rng := rand.New(rand.NewSource(1))
	now := dtl.Time(0)
	for i := 0; i < 3_000_000; i++ {
		var addr dtl.HPA
		if rng.Float64() < 0.9 {
			addr = alloc.AUBases[0] + dtl.HPA(rng.Int63n(64<<20)&^63)
		} else {
			au := 1 + rng.Intn(len(alloc.AUBases)-1)
			addr = alloc.AUBases[au] + dtl.HPA(rng.Int63n(4<<20)&^63)
		}
		must(dev.Read(addr, now))
		now += 2
		if i%500_000 == 0 {
			fmt.Printf("t=%-10v %v\n", now, dev.PowerSnapshot(now))
		}
	}
	dev.Tick(now)

	st := dev.Stats()
	fmt.Printf("\nself-refresh entries: %d, exits: %d, segments swapped: %d\n",
		st.SelfRefreshEnters, st.SelfRefreshExits, st.SegmentsSwapped)
	fmt.Println("final:", dev.PowerSnapshot(now))

	if dev.PowerSnapshot(now).RanksByState[dtl.SelfRefresh] > 0 {
		fmt.Println("\ntouching a cold address to wake a self-refresh rank...")
		cold := alloc.AUBases[len(alloc.AUBases)-1] + dtl.HPA(32<<20)
		lat := must(dev.Read(cold, now))
		fmt.Printf("cold read latency %v (includes self-refresh exit penalty)\n", lat)
		fmt.Println("after wake:", dev.PowerSnapshot(now+1))
	}
	// Output:
	// allocated 32 AUs; active ranks/channel: 2
	// t=2ns        bg=8.54 units, standby=8 selfRefresh=0 mpsm=8, active/ch=2, groupsDown=2
	// t=1.000ms    bg=5.34 units, standby=4 selfRefresh=4 mpsm=8, active/ch=2, groupsDown=2
	// t=2.000ms    bg=5.34 units, standby=4 selfRefresh=4 mpsm=8, active/ch=2, groupsDown=2
	// t=3.000ms    bg=5.34 units, standby=4 selfRefresh=4 mpsm=8, active/ch=2, groupsDown=2
	// t=4.000ms    bg=5.34 units, standby=4 selfRefresh=4 mpsm=8, active/ch=2, groupsDown=2
	// t=5.000ms    bg=5.34 units, standby=4 selfRefresh=4 mpsm=8, active/ch=2, groupsDown=2
	//
	// self-refresh entries: 4, exits: 0, segments swapped: 32
	// final: bg=5.34 units, standby=4 selfRefresh=4 mpsm=8, active/ch=2, groupsDown=2
	//
	// touching a cold address to wake a self-refresh rank...
	// cold read latency 786ns (includes self-refresh exit penalty)
	// after wake: bg=6.14 units, standby=5 selfRefresh=3 mpsm=8, active/ch=2, groupsDown=2
}

// The self-healing reliability loop: a seeded fault injector storms one
// rank with correctable errors and kills another while two VMs keep their
// memory. The health monitor detects the storm through the device's ECC
// telemetry and retires both degraded ranks, draining their segments to
// healthy ones. Every host address stays readable throughout.
func Example_faults() {
	dev := must(dtl.Open(dtl.WithConfig(exampleConfig())))
	d := dev.Core()

	// Two tenants, enough data that every channel holds live segments.
	var bases []dtl.HPA
	for vm := dtl.VMID(1); vm <= 2; vm++ {
		alloc := must(dev.AllocateVM(vm, dtl.HostID(vm-1), 1<<30, 0))
		bases = append(bases, alloc.AUBases...)
	}
	fmt.Println("before faults: ", dev.PowerSnapshot(0))
	fmt.Printf("usable capacity: %s\n\n", dram.FormatBytes(dev.UsableBytes()))

	// An ECC storm on ch0/rk0 at t=1ms (500 errors over ~50ms, far past the
	// health monitor's leaky bucket) and a hard failure of ch2/rk1 at 100ms.
	spec := fault.MustParse("seed=42;" +
		"storm:ch0/rk0:at=1ms,rate=10000,dur=50ms;" +
		"kill:ch2/rk1:at=100ms")
	eng := sim.NewEngine()
	inj := must(fault.NewInjector(spec, d.Device(), eng))
	horizon := 500 * sim.Millisecond
	inj.Start(horizon)

	// Deliver faults, then let the health monitor react at every tick (the
	// hypervisor's periodic interval, shrunk to 10ms).
	for now := sim.Time(0); now <= horizon; now += 10 * sim.Millisecond {
		eng.RunUntil(now)
		dev.Tick(now)
	}

	st := inj.Stats()
	fmt.Printf("injected: %d correctable errors, %d rank kill(s)\n",
		st.CorrectableErrors, st.RankKills)
	snap := d.Registry().Snapshot()
	fmt.Printf("health:   %.0f storms detected, %.0f ranks auto-retired\n",
		snap["core.health.storms"], snap["core.health.auto_retires"])
	for _, id := range d.RetiredRanks() {
		fmt.Printf("          retired ch%d/rk%d\n", id.Channel, id.Rank)
	}
	fmt.Println("\nafter healing:", dev.PowerSnapshot(horizon))
	fmt.Printf("usable capacity: %s\n", dram.FormatBytes(dev.UsableBytes()))

	for _, base := range bases {
		if _, err := dev.Read(base, horizon); err != nil {
			log.Fatalf("data loss at %#x: %v", base, err)
		}
	}
	check(dev.CheckInvariants())
	fmt.Println("\nzero data loss: all VM addresses readable; invariants hold")
	// Output:
	// before faults:  bg=8.54 units, standby=8 selfRefresh=0 mpsm=8, active/ch=2, groupsDown=2
	// usable capacity: 4GiB
	//
	// injected: 499 correctable errors, 1 rank kill(s)
	// health:   1 storms detected, 2 ranks auto-retired
	//           retired ch0/rk0
	//           retired ch2/rk1
	//
	// after healing: bg=11.34 units, standby=11 selfRefresh=0 mpsm=5, active/ch=2, groupsDown=1
	// usable capacity: 3584MiB
	//
	// zero data loss: all VM addresses readable; invariants hold
}

// The paper's headline scenario through the public API: an Azure-like VM
// population scheduled onto a 384 GiB CXL memory device for six hours, with
// rank-level power-down consolidating unallocated capacity at every VM
// deallocation. It prints the power timeline and the background energy
// saved versus an always-on baseline (the Figure 12 experiment).
func Example_cloudsched() {
	geom := dtl.Geometry{
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 << 20,
		RankBytes:       12 << 30, // 384 GiB total
	}
	dev := must(dtl.Open(dtl.WithConfig(core.DefaultConfig(geom))))

	cfg := vmtrace.DefaultGenConfig()
	cfg.NumVMs = 200
	vms := vmtrace.Generate(cfg)
	srv := vmtrace.Server{VCPUs: 48, MemBytes: geom.TotalBytes()}
	events, _, err := vmtrace.Schedule(vms, srv, cfg.Horizon)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheduling %d VMs over %v on %s\n\n", len(vms), cfg.Horizon, dram.FormatBytes(srv.MemBytes))
	fmt.Println("time      liveVMs  allocated   active-ranks/ch  background-power")

	baselineBG := float64(geom.TotalRanks()) // all ranks standby
	var techEnergy, baseEnergy float64
	var lastT dtl.Time
	ei := 0
	for t := sim.Time(0); t <= cfg.Horizon; t += vmtrace.Interval {
		for ei < len(events) && events[ei].At <= t {
			ev := events[ei]
			ei++
			if ev.Depart {
				check(dev.DeallocateVM(dtl.VMID(ev.VM.ID), t))
			} else {
				must(dev.AllocateVM(dtl.VMID(ev.VM.ID), dtl.HostID(ev.VM.ID%16), ev.VM.MemBytes, t))
			}
		}
		snap := dev.PowerSnapshot(t)
		span := float64(t - lastT)
		techEnergy += snap.BackgroundPower * span
		baseEnergy += baselineBG * span
		lastT = t
		if t%(30*sim.Minute) == 0 {
			fmt.Printf("%7v  %7d  %10s  %15d  %15.1f\n",
				t, dev.LiveVMs(), dram.FormatBytes(dev.AllocatedBytes()),
				snap.ActiveRanksPerChannel, snap.BackgroundPower)
		}
	}

	st := dev.Stats()
	fmt.Printf("\nbackground energy saving vs always-on: %.1f%%\n", 100*(1-techEnergy/baseEnergy))
	fmt.Printf("power-down events: %d, reactivations: %d, migrated: %s\n",
		st.PowerDownEvents, st.ReactivateEvents, dram.FormatBytes(st.BytesMigrated))
	// Output:
	// scheduling 200 VMs over 21600.000s on 384GiB
	//
	// time      liveVMs  allocated   active-ranks/ch  background-power
	//     0ns        4       16GiB                1              5.9
	// 1800.000s        6       54GiB                2              9.6
	// 3600.000s        9      142GiB                3             13.4
	// 5400.000s        5      164GiB                4             17.1
	// 7200.000s        9      138GiB                3             13.4
	// 9000.000s       15      156GiB                4             17.1
	// 10800.000s       16      176GiB                4             17.1
	// 12600.000s       16      138GiB                3             13.4
	// 14400.000s       15      190GiB                4             17.1
	// 16200.000s       12      164GiB                4             17.1
	// 18000.000s        9      174GiB                4             17.1
	// 19800.000s        9      148GiB                4             17.1
	// 21600.000s        8      180GiB                4             17.1
	//
	// background energy saving vs always-on: 55.7%
	// power-down events: 43, reactivations: 39, migrated: 298GiB
}

// The trace and metrics tooling without leaving Go: run the Figure 12
// power-down schedule at quick scale with the JSONL trace and the metrics
// CSV sinks, then summarize the trace the way `dtlstat read` does. The
// offline summary reproduces the live run's residency shares, migration
// latencies and background-energy proxy, and a repeated run diffs to zero.
// The equivalent shell session is:
//
//	dtlsim -exp fig12 -quick -trace run.jsonl -trace-format jsonl -metrics run.csv
//	dtlstat read run.jsonl
func Example_observability() {
	dir := must(os.MkdirTemp("", "dtl-observability"))
	defer os.RemoveAll(dir)
	fig12, ok := experiments.ByID("fig12")
	if !ok {
		log.Fatal("fig12 runner not registered")
	}
	opts := experiments.Options{
		Quick:       true,
		Seed:        1,
		Out:         io.Discard, // only the sinks matter here
		TracePath:   filepath.Join(dir, "run.jsonl"),
		TraceFormat: telemetry.FormatJSONL,
		MetricsPath: filepath.Join(dir, "run.csv"),
	}
	experiments.RunAll([]experiments.Runner{fig12}, opts, 1)
	trace := must(os.ReadFile(opts.TracePath))
	csv := must(os.ReadFile(opts.MetricsPath))
	fmt.Printf("trace:   run.jsonl  (%d JSONL records, %d bytes)\n", bytes.Count(trace, []byte("\n")), len(trace))
	fmt.Printf("metrics: run.csv  (%d CSV rows, %d bytes)\n\n", bytes.Count(csv, []byte("\n")), len(csv))

	// Re-read the trace offline, exactly as `dtlstat read` does.
	s := must(telemetry.SummarizeJSONL(bytes.NewReader(trace)))
	ranks := s.Ranks()
	all := s.Fold(ranks...)
	fmt.Printf("summarized from trace: %d ranks, run %.0f s\n", len(ranks), s.Fold(ranks[0]).Total/1e6)
	states := make([]string, 0, len(all.Us))
	for st := range all.Us {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Printf("  %-14s %5.1f%% of rank-time\n", st, 100*all.Us[st]/all.Total)
	}

	fmt.Printf("\nmigrations: %d", len(s.MigrationsUs))
	if len(s.MigrationsUs) > 0 {
		sum := metrics.Summarize(s.MigrationsUs)
		fmt.Printf("  (P50 %.1f us, P99 %.1f us)", sum.P50, sum.P99)
	}
	fmt.Printf("\nenergy proxy: %.3g weight-us (standby=1.0, self-refresh=0.2, mpsm=0.068)\n",
		s.EnergyProxy())

	// A second identical run writes the same trace byte for byte, so
	// `dtlstat diff` of the pair is zero at any tolerance: that is what lets
	// CI gate policy changes on it.
	opts.TracePath = filepath.Join(dir, "run2.jsonl")
	experiments.RunAll([]experiments.Runner{fig12}, opts, 1)
	if !bytes.Equal(must(os.ReadFile(opts.TracePath)), trace) {
		log.Fatal("repeated run drifted")
	}
	fmt.Println("\nrepeated run diffs to zero: deterministic, CI-gateable")
	// Output:
	// trace:   run.jsonl  (104868 JSONL records, 12797622 bytes)
	// metrics: run.csv  (73 CSV rows, 11701 bytes)
	//
	// summarized from trace: 32 ranks, run 21600 s
	//   mpsm            74.0% of rank-time
	//   standby         26.0% of rank-time
	//
	// migrations: 52224  (P50 163.8 us, P99 163.8 us)
	// energy proxy: 2.15e+11 weight-us (standby=1.0, self-refresh=0.2, mpsm=0.068)
	//
	// repeated run diffs to zero: deterministic, CI-gateable
}
