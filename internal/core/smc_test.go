package core

import (
	"math/rand"
	"testing"

	"dtl/internal/dram"
)

func newTestSMC() *smc { return newSMC(4, 16, 4) }

func TestSMCMissThenHit(t *testing.T) {
	c := newTestSMC()
	if _, lvl := c.lookup(100); lvl != 0 {
		t.Fatal("cold lookup should miss")
	}
	c.install(100, 7)
	dsn, lvl := c.lookup(100)
	if lvl != 1 || dsn != 7 {
		t.Fatalf("lookup after install = (%d, level %d)", dsn, lvl)
	}
}

func TestSMCL2HitPromotesToL1(t *testing.T) {
	c := newTestSMC()
	// Fill L1 past capacity so entry 0 is evicted from L1 but stays in L2.
	for i := dram.HSN(0); i < 8; i++ {
		c.install(i, dram.DSN(i*10))
	}
	dsn, lvl := c.lookup(0)
	if lvl != 2 || dsn != 0 {
		t.Fatalf("lookup(0) = (%d, level %d), want L2 hit", dsn, lvl)
	}
	// Promoted: next lookup is an L1 hit.
	if _, lvl := c.lookup(0); lvl != 1 {
		t.Fatalf("second lookup level = %d, want 1", lvl)
	}
}

func TestSMCInvalidate(t *testing.T) {
	c := newTestSMC()
	c.install(42, 9)
	c.invalidate(42)
	if _, lvl := c.lookup(42); lvl != 0 {
		t.Fatal("invalidated entry still hits")
	}
}

// TestSMCRefusesNonPowerOfTwoSets: the L2 set index is a mask, so a set
// count that is not a power of two must be refused rather than alias sets.
func TestSMCRefusesNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newSMC accepted 3 L2 sets")
		}
	}()
	newSMC(1, 12, 4)
}

func TestSMCLRUWithinSet(t *testing.T) {
	// All HSNs congruent mod sets land in one 4-way set; the 5th insert
	// evicts the least recently used.
	c := newSMC(1, 16, 4) // 4 sets
	sets := 4
	hsns := []dram.HSN{0, dram.HSN(sets), dram.HSN(2 * sets), dram.HSN(3 * sets)}
	for i, h := range hsns {
		c.install(h, dram.DSN(i))
	}
	c.lookup(hsns[0]) // make hsns[0] MRU in L2
	c.install(dram.HSN(4*sets), 99)
	if _, lvl := c.lookup(hsns[0]); lvl == 0 {
		t.Fatal("MRU entry evicted")
	}
	// hsns[1] was LRU; it must be gone (L1 is size 1, so likely miss too).
	if _, lvl := c.lookup(hsns[1]); lvl != 0 {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestSMCStatsRatios(t *testing.T) {
	c := newTestSMC()
	c.install(1, 1)
	c.lookup(1) // L1 hit
	c.lookup(2) // L1 miss, L2 miss
	st := c.stats()
	if st.L1Hits != 1 || st.L1Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.L1MissRatio() != 0.5 {
		t.Fatalf("L1 miss ratio = %v", st.L1MissRatio())
	}
	if st.L2MissRatio() != 1.0 {
		t.Fatalf("L2 miss ratio = %v", st.L2MissRatio())
	}
	var zero SMCStats
	if zero.L1MissRatio() != 0 || zero.L2MissRatio() != 0 {
		t.Fatal("zero stats should report zero ratios")
	}
}

func TestTable5SizesScaleWithCapacity(t *testing.T) {
	small := DefaultConfig(dram.Default1TB())
	big := DefaultConfig(dram.Hypothetical4TB())
	ss, bs := small.Sizes(), big.Sizes()

	if bs.SegmentMapTableBytes <= ss.SegmentMapTableBytes {
		t.Error("segment map table should grow with capacity")
	}
	if bs.MigrationTableBytes <= ss.MigrationTableBytes {
		t.Error("migration table should grow with capacity")
	}
	if bs.TotalDRAM() <= ss.TotalDRAM() {
		t.Error("DRAM structures should grow")
	}
	// Table 5 magnitudes: 1TB device structures are sub-MB except the
	// DRAM-side tables which are single-digit MB at 4TB.
	if ss.MigrationTableBytes < 100<<10 || ss.MigrationTableBytes > 2<<20 {
		t.Errorf("1TB migration table = %d bytes, want hundreds of KB", ss.MigrationTableBytes)
	}
	if bs.TotalDRAM() < 10<<20 || bs.TotalDRAM() > 100<<20 {
		t.Errorf("4TB DRAM structures = %d bytes, want tens of MB", bs.TotalDRAM())
	}
	// The paper's headline: metadata is a vanishing fraction of capacity.
	frac := float64(bs.TotalDRAM()) / float64(big.Geometry.TotalBytes())
	if frac > 0.0001 {
		t.Errorf("metadata fraction %.6f%% too large", frac*100)
	}
	// SMC sizes are small (sub-16KB).
	if ss.L1SMCBytes > 2048 || ss.L2SMCBytes > 16<<10 {
		t.Errorf("SMC sizes = %d/%d", ss.L1SMCBytes, ss.L2SMCBytes)
	}
}

func TestTable6ControllerEstimate(t *testing.T) {
	cfg := DefaultConfig(dram.Default1TB())
	e := cfg.Controller(7)
	// Paper: total ~25.7mW and 0.165mm^2 at 384GB, 36.2mW / 1.1mm^2 at
	// 4TB. Our 1TB point should land between those brackets.
	if e.TotalPowerMW < 15 || e.TotalPowerMW > 60 {
		t.Errorf("power = %.1f mW, want tens of mW", e.TotalPowerMW)
	}
	if e.TotalAreaMM2 < 0.05 || e.TotalAreaMM2 > 2 {
		t.Errorf("area = %.3f mm^2", e.TotalAreaMM2)
	}
	if e.CPUPowerMW < 20 || e.CPUPowerMW > 22 {
		t.Errorf("CPU power = %.1f mW, want ~21.2", e.CPUPowerMW)
	}
	big := DefaultConfig(dram.Hypothetical4TB()).Controller(7)
	if big.TotalPowerMW <= e.TotalPowerMW || big.TotalAreaMM2 <= e.TotalAreaMM2 {
		t.Error("4TB controller should cost more than 1TB")
	}
	// Technology scaling: 40nm should be ~(40/7)^2 more expensive.
	e40 := cfg.Controller(40)
	ratio := e40.CPUPowerMW / e.CPUPowerMW
	want := (40.0 / 7.0) * (40.0 / 7.0)
	if ratio/want < 0.99 || ratio/want > 1.01 {
		t.Errorf("tech scaling ratio = %.2f, want %.2f", ratio, want)
	}
}

func TestAMATModel(t *testing.T) {
	// Paper §6.1 numbers: L1 miss 14.7%, L2 miss 15.4%, CXL 210ns,
	// AMAT 214.2ns (+4.2ns translation).
	m := AMATModel{
		CXLMemLat: 210,
		L1Hit:     1,
		L2Hit:     5,
		L1Miss:    0.147,
		L2Miss:    0.154,
		Penalty:   2*sramTableHit + dramTableMiss,
	}
	tr := m.Translation()
	if tr < 2.0 || tr > 7.0 {
		t.Errorf("translation = %.2f ns, want ~4.2", tr)
	}
	amat := m.AMAT()
	if amat < 212 || amat > 217 {
		t.Errorf("AMAT = %.1f ns, want ~214.2", amat)
	}
	// Perfect caching: translation collapses to the L1 hit time.
	perfect := m
	perfect.L1Miss = 0
	if perfect.Translation() != float64(m.L1Hit) {
		t.Errorf("perfect-cache translation = %v", perfect.Translation())
	}
}

func TestAMATFromConfig(t *testing.T) {
	st := SMCStats{L1Hits: 853, L1Misses: 147, L2Hits: 124, L2Misses: 23}
	m := AMATFromConfig(210, st)
	if m.L1Miss != st.L1MissRatio() || m.L2Miss != st.L2MissRatio() {
		t.Fatal("ratios not propagated")
	}
	if m.Penalty != 2*sramTableHit+dramTableMiss {
		t.Fatalf("penalty = %v", m.Penalty)
	}
}

// refSMC is the linear-scan segment mapping cache the constant-time L1
// replaced, kept verbatim as the reference TestSMCMatchesLinearScan checks
// the current cache against.
type refSMC struct {
	l1     []smcEntry
	l2     []smcEntry
	l2Sets int
	l2Ways int
	stamp  uint64

	l1Hits, l1Misses int64
	l2Hits, l2Misses int64
}

func newRefSMC(l1Entries, l2Entries, l2Ways int) *refSMC {
	return &refSMC{
		l1:     make([]smcEntry, l1Entries),
		l2:     make([]smcEntry, l2Entries),
		l2Sets: l2Entries / l2Ways,
		l2Ways: l2Ways,
	}
}

func (c *refSMC) lookup(hsn dram.HSN) (dram.DSN, int) {
	c.stamp++
	for i := range c.l1 {
		e := &c.l1[i]
		if e.valid && e.hsn == hsn {
			e.lru = c.stamp
			c.l1Hits++
			return e.dsn, 1
		}
	}
	c.l1Misses++
	set := int(int64(hsn) % int64(c.l2Sets))
	base := set * c.l2Ways
	for i := base; i < base+c.l2Ways; i++ {
		e := &c.l2[i]
		if e.valid && e.hsn == hsn {
			e.lru = c.stamp
			c.l2Hits++
			c.installL1(hsn, e.dsn)
			return e.dsn, 2
		}
	}
	c.l2Misses++
	return 0, 0
}

func (c *refSMC) install(hsn dram.HSN, dsn dram.DSN) {
	c.stamp++
	c.installL1(hsn, dsn)
	c.installL2(hsn, dsn)
}

func (c *refSMC) installL1(hsn dram.HSN, dsn dram.DSN) {
	victim := 0
	for i := range c.l1 {
		if !c.l1[i].valid {
			victim = i
			break
		}
		if c.l1[i].lru < c.l1[victim].lru {
			victim = i
		}
	}
	c.l1[victim] = smcEntry{hsn: hsn, dsn: dsn, valid: true, lru: c.stamp}
}

func (c *refSMC) installL2(hsn dram.HSN, dsn dram.DSN) {
	set := int(int64(hsn) % int64(c.l2Sets))
	base := set * c.l2Ways
	victim := base
	for i := base; i < base+c.l2Ways; i++ {
		if !c.l2[i].valid {
			victim = i
			break
		}
		if c.l2[i].lru < c.l2[victim].lru {
			victim = i
		}
	}
	c.l2[victim] = smcEntry{hsn: hsn, dsn: dsn, valid: true, lru: c.stamp}
}

func (c *refSMC) invalidate(hsn dram.HSN) {
	for i := range c.l1 {
		if c.l1[i].valid && c.l1[i].hsn == hsn {
			c.l1[i].valid = false
		}
	}
	set := int(int64(hsn) % int64(c.l2Sets))
	base := set * c.l2Ways
	for i := base; i < base+c.l2Ways; i++ {
		if c.l2[i].valid && c.l2[i].hsn == hsn {
			c.l2[i].valid = false
		}
	}
}

func (c *refSMC) stats() SMCStats {
	return SMCStats{L1Hits: c.l1Hits, L1Misses: c.l1Misses, L2Hits: c.l2Hits, L2Misses: c.l2Misses}
}

// checkL1 verifies the L1's internal structure: the MRU list and the free
// stack partition the slots, and the index holds exactly the listed slots,
// each reachable from its home bucket.
func checkL1(t *testing.T, c *l1Cache) {
	t.Helper()
	listed := 0
	prev := int32(noSlot)
	for s := c.head; s != noSlot; s = c.next[s] {
		if c.prev[s] != prev {
			t.Fatalf("slot %d: prev link %d, want %d", s, c.prev[s], prev)
		}
		if _, got := c.find(c.hsn[s]); got != s {
			t.Fatalf("hsn %d in slot %d: index finds slot %d", c.hsn[s], s, got)
		}
		prev = s
		listed++
		if listed > len(c.hsn) {
			t.Fatal("MRU list has a cycle")
		}
	}
	if c.tail != prev {
		t.Fatalf("tail %d, want %d", c.tail, prev)
	}
	if listed+len(c.free) != len(c.hsn) {
		t.Fatalf("%d listed + %d free != %d slots", listed, len(c.free), len(c.hsn))
	}
	buckets := 0
	for _, v := range c.index {
		if v != 0 {
			buckets++
		}
	}
	if buckets != listed {
		t.Fatalf("index holds %d entries, list %d", buckets, listed)
	}
}

// TestSMCMatchesLinearScan drives random lookup/install/invalidate sequences
// through the constant-time cache and the linear-scan reference and requires
// the same hit level, DSN and counters at every step. Installs follow a full
// miss, as on the DTL's access path, so an HSN is never cached twice. Range
// invalidations are checked against the reference invalidating each HSN of
// the span in turn; their spans fall on both sides of the sweep threshold
// (n × ways ≥ L2 entries) and either cover a universe HSN or lie past all
// of them.
func TestSMCMatchesLinearScan(t *testing.T) {
	sizes := []struct{ l1, l2, ways int }{
		{1, 16, 4}, {2, 16, 4}, {64, 1024, 4}, // edge sizes and the paper's
		{16, 256, 4}, {256, 4096, 4}, // the abl-smc sweep
	}
	for _, sz := range sizes {
		for seed := int64(1); seed <= 4; seed++ {
			c := newSMC(sz.l1, sz.l2, sz.ways)
			ref := newRefSMC(sz.l1, sz.l2, sz.ways)
			rng := rand.New(rand.NewSource(seed))
			// A universe a few times the L1 keeps hits, L2 promotions and
			// evictions all common; a stride spreads HSNs over the index.
			universe := 3*sz.l1 + 8
			stride := dram.HSN(1 + rng.Intn(97))
			gen := map[dram.HSN]dram.DSN{}
			for step := 0; step < 20000; step++ {
				h := dram.HSN(rng.Intn(universe)) * stride
				op := rng.Intn(10)
				if op == 0 && rng.Intn(8) == 0 {
					n := int64(1 + rng.Intn(2*ref.l2Sets))
					lo := max(h-dram.HSN(rng.Int63n(n)), 0)
					if rng.Intn(4) == 0 {
						lo = dram.HSN(universe) * stride
					}
					c.invalidateRange(lo, n)
					for x := lo; x < lo+dram.HSN(n); x++ {
						ref.invalidate(x)
					}
					for x := range gen {
						if x >= lo && x < lo+dram.HSN(n) {
							gen[x]++
						}
					}
				} else if op == 0 {
					c.invalidate(h)
					ref.invalidate(h)
					gen[h]++ // the next fill carries a new mapping
				} else {
					dsn, lvl := c.lookup(h)
					wantDSN, wantLvl := ref.lookup(h)
					if dsn != wantDSN || lvl != wantLvl {
						t.Fatalf("L1 %d seed %d step %d: lookup(%d) = (%d, %d), want (%d, %d)",
							sz.l1, seed, step, h, dsn, lvl, wantDSN, wantLvl)
					}
					if lvl == 0 && op > 2 {
						c.install(h, gen[h]*1000+dram.DSN(h))
						ref.install(h, gen[h]*1000+dram.DSN(h))
					}
				}
				if got, want := c.stats(), ref.stats(); got != want {
					t.Fatalf("L1 %d seed %d step %d: stats %+v, want %+v", sz.l1, seed, step, got, want)
				}
				if step%97 == 0 {
					checkL1(t, &c.l1)
				}
			}
			checkL1(t, &c.l1)
		}
	}
}
