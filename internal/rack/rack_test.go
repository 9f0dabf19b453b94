package rack

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/fault"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// testGeometry is the scaled-down expander geometry the core tests use:
// 4 channels x 4 ranks x 64 MiB ranks (1 GiB per expander).
func testGeometry() dram.Geometry {
	return dram.Geometry{
		Channels:        4,
		RanksPerChannel: 4,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       64 * dram.MiB,
	}
}

func testConfig() Config {
	ecfg := core.DefaultConfig(testGeometry())
	ecfg.AUBytes = 16 * dram.MiB
	ecfg.MaxHosts = 4
	return Config{Expanders: 2, Expander: ecfg, Fabric: DefaultFabricConfig()}
}

func newTestFabric(t testing.TB, mut func(*Config)) *Fabric {
	t.Helper()
	cfg := testConfig()
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseFabricDefaults(t *testing.T) {
	got, err := ParseFabric("")
	if err != nil {
		t.Fatal(err)
	}
	if got != DefaultFabricConfig() {
		t.Fatalf("empty grammar = %+v, want defaults %+v", got, DefaultFabricConfig())
	}
}

func TestParseFabricGrammar(t *testing.T) {
	got, err := ParseFabric("hop=300ns; gbs=8 ;policy=pack")
	if err != nil {
		t.Fatal(err)
	}
	want := FabricConfig{HopLatency: 300 * sim.Nanosecond, BandwidthGBs: 8, Policy: PolicyPack}
	if got != want {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if want.Policy.String() != "pack" || PolicySpread.String() != "spread" {
		t.Fatalf("policy strings: %q %q", want.Policy, PolicySpread)
	}
}

func TestParseFabricErrors(t *testing.T) {
	for _, bad := range []string{
		"hop",              // no '='
		"hop=-5ns",         // negative duration
		"hop=fast",         // not a duration
		"gbs=0",            // zero bandwidth
		"gbs=-3",           // negative bandwidth
		"gbs=wide",         // not a float
		"gbs=NaN",          // parses as a float, but not a number
		"gbs=nan",          // same, lower case
		"gbs=Inf",          // infinite bandwidth
		"gbs=+inf",         // same, signed lower case
		"gbs=-Inf",         // negative infinity
		"gbs=1e400",        // overflows to +Inf
		"policy=firstfit",  // unknown policy
		"latency=150ns",    // unknown key
		"hop=1us;gbs=zero", // later term bad
	} {
		if _, err := ParseFabric(bad); err == nil {
			t.Errorf("ParseFabric(%q) accepted, want error", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Expanders = 0 },
		func(c *Config) { c.Expanders = MaxExpanders + 1 },
		func(c *Config) { c.Fabric.HopLatency = -1 },
		func(c *Config) { c.Fabric.BandwidthGBs = 0 },
	} {
		cfg := testConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted invalid config %+v", cfg)
		}
	}
}

func TestAffinityAndRackRank(t *testing.T) {
	f := newTestFabric(t, nil)
	if got := f.Affinity(3); got != 1 {
		t.Fatalf("Affinity(3) = %d, want 1", got)
	}
	if got := f.Affinity(-3); got < 0 || got >= 2 {
		t.Fatalf("Affinity(-3) = %d outside [0,2)", got)
	}
	// Expander 1, local ch1/rk2: localGR = rk*channels + ch = 9. Rack space
	// concatenates channels, so rackRank = rk*(2*4) + 1*4 + ch = 21.
	if got := f.rackRank(1, 9); got != 21 {
		t.Fatalf("rackRank(1, 9) = %d, want 21", got)
	}
	if got := f.TotalRanks(); got != 32 {
		t.Fatalf("TotalRanks = %d, want 32", got)
	}
}

// New expanders must settle to their power floor immediately, not idle fully
// awake: the pack policy's cold pool only saves energy if untouched
// expanders power down without waiting for a first deallocation.
func TestNewExpandersStartAtPowerFloor(t *testing.T) {
	f := newTestFabric(t, nil)
	for _, e := range f.Expanders() {
		if got := e.DTL.ActiveRanksPerChannel(); got != 1 {
			t.Fatalf("expander %d has %d active ranks/channel at build, want 1 (power floor)", e.ID, got)
		}
	}
}

func TestSpreadPlacesOnAffinityExpander(t *testing.T) {
	f := newTestFabric(t, nil)
	a := NewAllocator(f)
	for vm := core.VMID(0); vm < 4; vm++ {
		x, err := a.Place(vm, 0, 16*dram.MiB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Affinity(vm); x != want {
			t.Fatalf("spread placed vm %d on x%d, want affinity x%d", vm, x, want)
		}
	}
	if st := a.Stats(); st.Placed != 4 || st.Spilled != 0 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 4 placed, 0 spilled/shed", st)
	}
}

func TestPackPlacesOnDensestExpander(t *testing.T) {
	f := newTestFabric(t, func(c *Config) { c.Fabric.Policy = PolicyPack })
	a := NewAllocator(f)
	// All expanders empty: ties break to the lowest id, and every later VM
	// packs onto the now-densest expander 0 regardless of affinity.
	for vm := core.VMID(0); vm < 4; vm++ {
		x, err := a.Place(vm, 0, 16*dram.MiB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if x != 0 {
			t.Fatalf("pack placed vm %d on x%d, want x0", vm, x)
		}
	}
	if got := f.Expander(1).DTL.AllocatedBytes(); got != 0 {
		t.Fatalf("pack leaked %d bytes onto expander 1", got)
	}
}

func TestPlaceSpillsAndSheds(t *testing.T) {
	f := newTestFabric(t, nil)
	a := NewAllocator(f)
	capBytes := testGeometry().TotalBytes()
	// Fill vm 0's affinity expander (x0) completely, then a second VM with
	// affinity x0 must spill to x1, and a third rack-sized VM is shed.
	if x, err := a.Place(0, 0, capBytes, 0); err != nil || x != 0 {
		t.Fatalf("Place(vm0) = x%d, %v", x, err)
	}
	x, err := a.Place(2, 1, capBytes, 0)
	if err != nil || x != 1 {
		t.Fatalf("Place(vm2) = x%d, %v; want spill to x1", x, err)
	}
	if _, err := a.Place(4, 2, 16*dram.MiB, 0); !errors.Is(err, core.ErrOutOfCapacity) {
		t.Fatalf("Place on a full rack = %v, want ErrOutOfCapacity", err)
	}
	st := a.Stats()
	if st.Placed != 2 || st.Spilled != 1 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 2 placed, 1 spilled, 1 shed", st)
	}
}

func TestCrossExpanderAccessChargesFabricStall(t *testing.T) {
	f := newTestFabric(t, func(c *Config) { c.Fabric.Policy = PolicyPack })
	led := f.StartLedger()
	a := NewAllocator(f)
	// vm 1's affinity is x1, but the pack policy lands it on x0.
	x, err := a.Place(1, 0, 16*dram.MiB, 0)
	if err != nil || x != 0 {
		t.Fatalf("Place = x%d, %v", x, err)
	}
	addrs, err := f.Expander(0).DTL.VMAddresses(1)
	if err != nil {
		t.Fatal(err)
	}

	res, flat, err := f.Access(1, 0, addrs[0], false, 1000)
	if err != nil {
		t.Fatal(err)
	}
	wantFlat := 2*f.cfg.Fabric.HopLatency + f.transferNs(accessTransferBytes)
	if flat != wantFlat {
		t.Fatalf("cross-expander fabric latency = %v, want %v", flat, wantFlat)
	}
	if res.TotalLat() <= 0 {
		t.Fatalf("access result has no device latency: %+v", res)
	}
	totals := led.CauseTotals()
	if got := totals[telemetry.CauseFabricStall]; got.LatNs != int64(wantFlat) || got.Energy != 0 {
		t.Fatalf("fabric-stall cell = %+v, want {LatNs: %d, Energy: 0}", got, wantFlat)
	}
	if got := f.Registry().Counter("rack.fabric.cross_accesses").Value(); got != 1 {
		t.Fatalf("cross_accesses = %d, want 1", got)
	}

	// An access from the VM's affinity expander pays nothing.
	f2 := newTestFabric(t, nil)
	a2 := NewAllocator(f2)
	if _, err := a2.Place(1, 0, 16*dram.MiB, 0); err != nil {
		t.Fatal(err)
	}
	addrs2, err := f2.Expander(1).DTL.VMAddresses(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, flat, err := f2.Access(1, 1, addrs2[0], false, 1000); err != nil || flat != 0 {
		t.Fatalf("affine access fabric latency = %v, %v; want 0", flat, err)
	}
}

func TestAccessPaysBandwidthShareWhileLinkBusy(t *testing.T) {
	f := newTestFabric(t, func(c *Config) { c.Fabric.Policy = PolicyPack })
	a := NewAllocator(f)
	if _, err := a.Place(1, 0, 16*dram.MiB, 0); err != nil {
		t.Fatal(err)
	}
	addrs, err := f.Expander(0).DTL.VMAddresses(1)
	if err != nil {
		t.Fatal(err)
	}
	done := f.copyOver(1, 0, 1, 16*dram.MiB, 0)
	if done != f.transferNs(16*dram.MiB) {
		t.Fatalf("copy completes at %v, want %v", done, f.transferNs(16*dram.MiB))
	}
	_, busyFlat, err := f.Access(1, 0, addrs[0], false, done-1)
	if err != nil {
		t.Fatal(err)
	}
	_, idleFlat, err := f.Access(1, 0, addrs[0], false, done+1)
	if err != nil {
		t.Fatal(err)
	}
	if want := idleFlat + f.transferNs(accessTransferBytes); busyFlat != want {
		t.Fatalf("busy-link access = %v, idle = %v; want busy = idle + one transfer (%v)", busyFlat, idleFlat, want)
	}
}

func TestConsolidateMigratesWithVerify(t *testing.T) {
	f := newTestFabric(t, func(c *Config) { c.Fabric.Policy = PolicyPack })
	led := f.StartLedger()
	a := NewAllocator(f)
	capBytes := testGeometry().TotalBytes()

	// Fill x0, force a small VM onto x1 (below the consolidation watermark),
	// then empty x0: the next Consolidate drains x1's stray VM back.
	if _, err := a.Place(0, 0, capBytes, 0); err != nil {
		t.Fatal(err)
	}
	x, err := a.Place(1, 1, 16*dram.MiB, 0)
	if err != nil || x != 1 {
		t.Fatalf("Place(vm1) = x%d, %v; want x1", x, err)
	}
	if err := a.Free(0, 100); err != nil {
		t.Fatal(err)
	}

	moved, err := a.Consolidate(1000)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("Consolidate moved %d VMs, want 1", moved)
	}
	if x, ok := a.Lookup(1); !ok || x != 0 {
		t.Fatalf("vm 1 now on x%d (ok=%v), want x0", x, ok)
	}
	if got := f.Expander(1).DTL.AllocatedBytes(); got != 0 {
		t.Fatalf("donor still holds %d bytes", got)
	}

	st := a.Stats()
	if st.Migrations != 1 || st.MigratedBytes != 16*dram.MiB {
		t.Fatalf("stats = %+v, want 1 migration of 16 MiB", st)
	}
	if st.VerifyProbes == 0 || st.VerifyLatNs == 0 || st.VerifyFailures != 0 {
		t.Fatalf("verify-after-copy did not run: %+v", st)
	}

	wantEnergy := f.slope * float64(16*dram.MiB)
	cell := led.CauseTotals()[telemetry.CauseFabricCopy]
	if cell.Energy != wantEnergy {
		t.Fatalf("fabric-copy energy = %v, want %v", cell.Energy, wantEnergy)
	}
	if cell.LatNs != int64(f.transferNs(16*dram.MiB)) {
		t.Fatalf("fabric-copy latency = %v, want %v", cell.LatNs, f.transferNs(16*dram.MiB))
	}
	if got := f.Registry().Counter("rack.fabric.bytes_copied").Value(); got != 16*dram.MiB {
		t.Fatalf("bytes_copied = %d, want %d", got, 16*dram.MiB)
	}

	// Spread racks never consolidate.
	f2 := newTestFabric(t, nil)
	a2 := NewAllocator(f2)
	if _, err := a2.Place(1, 0, 16*dram.MiB, 0); err != nil {
		t.Fatal(err)
	}
	if moved, err := a2.Consolidate(1000); err != nil || moved != 0 {
		t.Fatalf("spread Consolidate = %d, %v; want no-op", moved, err)
	}
}

func TestStartFaultsSplitsSpecAcrossExpanders(t *testing.T) {
	f := newTestFabric(t, nil)
	spec, err := fault.Parse("seed=7;kill:x1/ch0/rk0:at=1h")
	if err != nil {
		t.Fatal(err)
	}
	injs, err := f.StartFaults(spec, 6*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(injs) != 1 {
		t.Fatalf("got %d injectors, want 1 (only x1 targeted)", len(injs))
	}
	f.Engine().RunUntil(2 * sim.Hour)
	if failed := f.Expander(1).DTL.Device().FailedGlobal(0); !failed {
		t.Fatal("x1 ch0/rk0 not failed after the scheduled kill")
	}
	if failed := f.Expander(0).DTL.Device().FailedGlobal(0); failed {
		t.Fatal("kill leaked onto expander 0")
	}

	// A spec aimed past the rack edge fails loudly.
	spec2, err := fault.Parse("kill:x5/ch0/rk0:at=1h")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartFaults(spec2, 6*sim.Hour); err == nil || !strings.Contains(err.Error(), "x5") {
		t.Fatalf("StartFaults(x5 on 2-expander rack) = %v, want loud error", err)
	}
}

// TestFinishAttributionFoldsExpanderLedgers drives a tiny workload with
// tracing and attribution on, then checks the rack ledger carries both the
// fabric causes (rack-charged) and the expanders' technique causes
// (privately charged, folded in at finish with rack-global rank ids).
func TestFinishAttributionFoldsExpanderLedgers(t *testing.T) {
	f := newTestFabric(t, func(c *Config) { c.Fabric.Policy = PolicyPack })
	tr := f.StartTrace(0)
	led := f.StartLedger()
	a := NewAllocator(f)
	capBytes := testGeometry().TotalBytes()
	if _, err := a.Place(0, 0, capBytes, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Place(1, 1, 16*dram.MiB, 0); err != nil {
		t.Fatal(err)
	}
	addrs, err := f.Expander(0).DTL.VMAddresses(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Access(0, 0, addrs[0], false, 500); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(0, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Consolidate(2000); err != nil {
		t.Fatal(err)
	}

	horizon := sim.Time(1 * sim.Hour)
	f.AccountUpTo(horizon)
	tr.Finish(horizon)
	f.FinishAttribution(tr, led, horizon)

	totals := led.CauseTotals()
	if totals[telemetry.CauseFabricCopy].Energy == 0 {
		t.Fatal("no fabric-copy energy after consolidation")
	}
	if totals[telemetry.CauseBaseline].LatNs == 0 {
		t.Fatal("expander baseline access latency did not fold into the rack ledger")
	}
	if totals[telemetry.CauseBaseline].Energy == 0 {
		t.Fatal("residency energy did not fold into the rack ledger")
	}
	// Folded technique charges must land on rack-global rank ids: every
	// per-rank entry must be inside the rack rank space.
	for _, ent := range led.Snapshot().Entries {
		if ent.Rank >= f.TotalRanks() {
			t.Fatalf("ledger entry rank %d outside rack space [0,%d)", ent.Rank, f.TotalRanks())
		}
	}
}

// TestDeterministicLedger re-runs an identical packed workload and requires
// byte-identical ledger dumps — the rack-level spelling of the repo's
// byte-determinism invariant.
func TestDeterministicLedger(t *testing.T) {
	run := func() []byte {
		f := newTestFabric(t, func(c *Config) { c.Fabric.Policy = PolicyPack })
		tr := f.StartTrace(0)
		led := f.StartLedger()
		a := NewAllocator(f)
		for vm := core.VMID(0); vm < 6; vm++ {
			if _, err := a.Place(vm, core.HostID(vm%4), 32*dram.MiB, sim.Time(vm)*100); err != nil {
				t.Fatal(err)
			}
		}
		for vm := core.VMID(0); vm < 6; vm++ {
			x, _ := a.Lookup(vm)
			addrs, err := f.Expander(x).DTL.VMAddresses(vm)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := f.Access(vm, x, addrs[0], vm%2 == 0, 10_000+sim.Time(vm)*50); err != nil {
				t.Fatal(err)
			}
		}
		for vm := core.VMID(0); vm < 4; vm++ {
			if err := a.Free(vm, 20_000+sim.Time(vm)*10); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Consolidate(30_000); err != nil {
			t.Fatal(err)
		}
		horizon := sim.Time(1 * sim.Hour)
		f.AccountUpTo(horizon)
		tr.Finish(horizon)
		f.FinishAttribution(tr, led, horizon)
		var buf bytes.Buffer
		if err := led.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical rack runs produced different ledger bytes")
	}
}
