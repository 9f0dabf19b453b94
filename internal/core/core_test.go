package core

import (
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// testGeometry is a scaled-down device: 4 channels x 4 ranks x 64 MiB ranks
// (32 segments/rank, 512 segments total) so structural tests stay fast.
func testGeometry() dram.Geometry {
	return dram.Geometry{
		Channels:        4,
		RanksPerChannel: 4,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       64 * dram.MiB,
	}
}

// testConfig pairs the small geometry with a 16 MiB AU (8 segments,
// 2 per channel).
func testConfig() Config {
	cfg := DefaultConfig(testGeometry())
	cfg.AUBytes = 16 * dram.MiB
	cfg.MaxHosts = 4
	return cfg
}

func newTestDTL(t testing.TB) *DTL {
	t.Helper()
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustAlloc(t testing.TB, d *DTL, vm VMID, host HostID, bytes int64, now sim.Time) Allocation {
	t.Helper()
	a, err := d.AllocateVM(vm, host, bytes, now)
	if err != nil {
		t.Fatalf("AllocateVM(%d): %v", vm, err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after alloc %d: %v", vm, err)
	}
	return a
}

func mustDealloc(t testing.TB, d *DTL, vm VMID, now sim.Time) {
	t.Helper()
	if err := d.DeallocateVM(vm, now); err != nil {
		t.Fatalf("DeallocateVM(%d): %v", vm, err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after dealloc %d: %v", vm, err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	if err := DefaultConfig(dram.Default1TB()).Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := testConfig()
	bad.AUBytes = 3 * dram.MiB
	if err := bad.Validate(); err == nil {
		t.Fatal("odd AU size accepted")
	}
	bad = testConfig()
	bad.L2SMCEntries = 1000 // 250 sets, not pow2
	if err := bad.Validate(); err == nil {
		t.Fatal("non-pow2 L2 sets accepted")
	}
	bad = testConfig()
	bad.MaxHosts = 0
	bad2 := bad // MaxHosts zero is filled by defaults in New, but Validate rejects it
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero hosts accepted")
	}
}

func TestPaperConfigParameters(t *testing.T) {
	cfg := DefaultConfig(dram.Default1TB())
	if cfg.AUBytes != 2<<30 {
		t.Errorf("AU = %d, want 2GB", cfg.AUBytes)
	}
	if cfg.L1SMCEntries != 64 || cfg.L2SMCEntries != 1024 || l2SMCWays != 4 {
		t.Errorf("SMC config = %d/%d/%d", cfg.L1SMCEntries, cfg.L2SMCEntries, l2SMCWays)
	}
	if cfg.ProfilingWindow != 500*sim.Microsecond {
		t.Errorf("profiling window = %v", cfg.ProfilingWindow)
	}
	if cfg.ProfilingThreshold != 50*sim.Millisecond {
		t.Errorf("profiling threshold = %v", cfg.ProfilingThreshold)
	}
	if cfg.TSPTimeoutEntries != 32 {
		t.Errorf("TSP walk budget = %d entries", cfg.TSPTimeoutEntries)
	}
	if migrationRetryLimit != 3 {
		t.Errorf("retry limit = %d", migrationRetryLimit)
	}
	if cfg.SegmentsPerAU() != 1024 {
		t.Errorf("segments per AU = %d, want 1024", cfg.SegmentsPerAU())
	}
	if cfg.TotalAUs() != 512 {
		t.Errorf("total AUs = %d, want 512", cfg.TotalAUs())
	}
}

func TestNewStartsEmptyAndConsistent(t *testing.T) {
	d := newTestDTL(t)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.LiveVMs() != 0 || d.AllocatedBytes() != 0 {
		t.Fatal("fresh DTL not empty")
	}
	if d.ActiveRanksPerChannel() != 4 {
		t.Fatalf("active ranks = %d", d.ActiveRanksPerChannel())
	}
}

func TestAccessUnallocatedFails(t *testing.T) {
	d := newTestDTL(t)
	if _, err := d.Access(0, false, 0); err == nil {
		t.Fatal("access to unallocated memory succeeded")
	}
}

func TestAllocateAccessRoundTrip(t *testing.T) {
	d := newTestDTL(t)
	a := mustAlloc(t, d, 1, 0, 32*dram.MiB, 0)
	if a.Bytes != 32*dram.MiB {
		t.Fatalf("allocated %d, want 32MiB", a.Bytes)
	}
	if len(a.AUBases) != 2 {
		t.Fatalf("AU bases = %d, want 2", len(a.AUBases))
	}
	now := sim.Time(0)
	for _, base := range a.AUBases {
		for off := int64(0); off < 16*dram.MiB; off += 512 << 10 {
			res, err := d.Access(base+dram.HPA(off), false, now)
			if err != nil {
				t.Fatalf("access at %#x: %v", int64(base)+off, err)
			}
			if res.TotalLat() <= 0 {
				t.Fatalf("non-positive latency %v", res.TotalLat())
			}
			now += 100
		}
	}
	st := d.Stats()
	if st.Accesses == 0 || st.MissPathWalks == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTranslationLatencyLevels(t *testing.T) {
	d := newTestDTL(t)
	a := mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	base := a.AUBases[0]

	// First access: full miss path.
	r1, err := d.Access(base, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SMCLevel != 0 {
		t.Fatalf("first access SMC level = %d, want 0 (miss)", r1.SMCLevel)
	}
	wantMiss := l1SMCHit + l2SMCHit + 2*sramTableHit + dramTableMiss
	if r1.TranslationLat != wantMiss {
		t.Fatalf("miss translation = %v, want %v", r1.TranslationLat, wantMiss)
	}

	// Second access to the same segment: L1 hit.
	r2, err := d.Access(base+64, false, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SMCLevel != 1 || r2.TranslationLat != l1SMCHit {
		t.Fatalf("second access level=%d lat=%v", r2.SMCLevel, r2.TranslationLat)
	}
}

func TestSMCL2HitAfterL1Eviction(t *testing.T) {
	d := newTestDTL(t)
	cfg := d.Config()
	a := mustAlloc(t, d, 1, 0, 4*16*dram.MiB, 0) // 32 segments > 64? no: touch > L1 entries
	// Touch more distinct segments than L1 entries (64) to force eviction.
	segs := int64(0)
	now := sim.Time(0)
	for _, base := range a.AUBases {
		for off := int64(0); off < 16*dram.MiB; off += 2 * dram.MiB {
			if _, err := d.Access(base+dram.HPA(off), false, now); err != nil {
				t.Fatal(err)
			}
			segs++
			now += 100
		}
	}
	if segs <= int64(cfg.L1SMCEntries) {
		t.Skipf("only %d segments touched; need > %d", segs, cfg.L1SMCEntries)
	}
	// Re-touch the first segment: should be L2 hit (evicted from 64-entry
	// L1, resident in 1024-entry L2) — or L1 if it survived; must not walk.
	r, err := d.Access(a.AUBases[0], false, now)
	if err != nil {
		t.Fatal(err)
	}
	if r.SMCLevel == 0 && segs < int64(cfg.L2SMCEntries) {
		t.Fatalf("full miss-path walk despite L2 capacity (%d segments)", segs)
	}
}

func TestDeallocateReleasesEverything(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	if d.AllocatedBytes() != 64*dram.MiB {
		t.Fatalf("allocated = %d", d.AllocatedBytes())
	}
	mustDealloc(t, d, 1, 1000)
	if d.AllocatedBytes() != 0 || d.LiveVMs() != 0 {
		t.Fatal("deallocation left residue")
	}
	if _, err := d.VMAddresses(1); err == nil {
		t.Fatal("addresses of freed VM still resolvable")
	}
	// The freed address must no longer be accessible.
	if _, err := d.Access(0, false, 2000); err == nil {
		t.Fatal("stale access succeeded after dealloc")
	}
}

func TestDoubleAllocAndDeallocErrors(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	if _, err := d.AllocateVM(1, 0, 16*dram.MiB, 0); err == nil {
		t.Fatal("double alloc accepted")
	}
	if err := d.DeallocateVM(99, 0); err == nil {
		t.Fatal("dealloc of unknown VM accepted")
	}
	if _, err := d.AllocateVM(2, 0, 0, 0); err == nil {
		t.Fatal("zero-byte alloc accepted")
	}
	if _, err := d.AllocateVM(3, HostID(99), 16*dram.MiB, 0); err == nil {
		t.Fatal("out-of-range host accepted")
	}
}

func TestAllocationRoundsUpToAU(t *testing.T) {
	d := newTestDTL(t)
	a := mustAlloc(t, d, 1, 0, 1, 0) // 1 byte -> 1 AU
	if a.Bytes != d.Config().AUBytes {
		t.Fatalf("allocated %d, want one AU %d", a.Bytes, d.Config().AUBytes)
	}
}

func TestBalancedAllocationAcrossChannels(t *testing.T) {
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	g := d.Config().Geometry
	perChannel := make([]int64, g.Channels)
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.RanksPerChannel; rk++ {
			perChannel[ch] += d.allocated[d.codec.GlobalRank(ch, rk)]
		}
	}
	for ch := 1; ch < g.Channels; ch++ {
		if perChannel[ch] != perChannel[0] {
			t.Fatalf("channel allocation imbalance: %v", perChannel)
		}
	}
}

func TestAllocationPrefersUtilizedRanks(t *testing.T) {
	// Consecutive allocations should pack into the same ranks rather than
	// spreading (§4.3 priority rule), keeping other ranks drainable.
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	mustAlloc(t, d, 2, 0, 16*dram.MiB, 0)
	g := d.Config().Geometry
	for ch := 0; ch < g.Channels; ch++ {
		ranksUsed := 0
		for rk := 0; rk < g.RanksPerChannel; rk++ {
			if d.allocated[d.codec.GlobalRank(ch, rk)] > 0 {
				ranksUsed++
			}
		}
		if ranksUsed != 1 {
			t.Fatalf("channel %d spread across %d ranks, want 1", ch, ranksUsed)
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	d := newTestDTL(t)
	total := d.Config().Geometry.TotalBytes()
	mustAlloc(t, d, 1, 0, total, 0)
	if _, err := d.AllocateVM(2, 0, 16*dram.MiB, 0); err == nil {
		t.Fatal("over-allocation accepted")
	}
}

func TestVMAddressesStableAcrossMigration(t *testing.T) {
	// HPAs handed to a VM must keep working after power-down migrations.
	d := newTestDTL(t)
	a1 := mustAlloc(t, d, 1, 0, 96*dram.MiB, 0)
	mustAlloc(t, d, 2, 0, 96*dram.MiB, 0)
	mustDealloc(t, d, 2, 1000) // triggers consolidation
	now := sim.Time(10000)
	for _, base := range a1.AUBases {
		if _, err := d.Access(base, false, now); err != nil {
			t.Fatalf("HPA %#x broken after migration: %v", int64(base), err)
		}
		now += 1000
	}
}

func TestAccessAfterRetirementAsymmetry(t *testing.T) {
	// Regression for the per-channel capacity bug the snapshot property
	// test exposed: after retiring one rank on one channel, a large
	// allocation must either fit (per-channel) or fail cleanly — never
	// panic the allocator.
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	if err := d.RetireRank(dram.RankID{Channel: 3, Rank: 2}, 1000); err != nil {
		t.Fatal(err)
	}
	// Channel 3 now has one rank less. Ask for almost everything.
	total := d.UsableBytes() - 16*dram.MiB
	// Per-channel balance caps the usable allocation at 4x the SMALLEST
	// channel's capacity; requesting more must error, not panic.
	if _, err := d.AllocateVM(2, 0, total, 2000); err == nil {
		// If it fits, the invariants must hold.
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// A balanced request sized to the smallest channel must succeed.
	smallest := int64(3) * 64 * dram.MiB    // 3 remaining ranks on channel 3
	perChannelSafe := smallest * 4 * 8 / 10 // 80% of balanced capacity
	perChannelSafe -= perChannelSafe % (16 * dram.MiB)
	if _, err := d.AllocateVM(3, 0, perChannelSafe, 3000); err != nil {
		t.Fatalf("balanced allocation failed: %v", err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
