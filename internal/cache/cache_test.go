package cache

import (
	"math/rand"
	"slices"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 32 << 10, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 8},
		{SizeBytes: 32 << 10, Ways: 0},
		{SizeBytes: 1000, Ways: 3},       // not divisible
		{SizeBytes: 3 * 64 * 8, Ways: 8}, // 3 sets, not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", c)
		}
	}
}

func TestTable3Configs(t *testing.T) {
	cfgs := Table3()
	if len(cfgs) != 3 {
		t.Fatalf("levels = %d, want 3", len(cfgs))
	}
	if cfgs[0].SizeBytes != 32<<10 || cfgs[0].Ways != 8 {
		t.Errorf("L1 = %+v", cfgs[0])
	}
	if cfgs[1].SizeBytes != 1<<20 || cfgs[1].Ways != 8 {
		t.Errorf("L2 = %+v", cfgs[1])
	}
	if cfgs[2].SizeBytes != 8<<20 || cfgs[2].Ways != 16 {
		t.Errorf("LLC = %+v", cfgs[2])
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("table 3 config invalid: %v", err)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := MustTable3()
	first := h.Access(0x1000, false)
	if len(first) != 1 || first[0].Write {
		t.Fatalf("cold access = %v, want one read miss", first)
	}
	second := h.Access(0x1000, false)
	if len(second) != 0 {
		t.Fatalf("warm access = %v, want hit (no memory traffic)", second)
	}
	// Same line, different byte.
	third := h.Access(0x1004, true)
	if len(third) != 0 {
		t.Fatalf("same-line access = %v, want hit", third)
	}
}

func TestWorkingSetFitsInLLC(t *testing.T) {
	h := MustTable3()
	// 4 MB working set < 8 MB LLC: second pass should be ~all hits.
	const ws = 4 << 20
	for pass := 0; pass < 2; pass++ {
		misses := 0
		for a := int64(0); a < ws; a += LineBytes {
			if len(h.Access(a, false)) > 0 {
				misses++
			}
		}
		if pass == 1 && misses > ws/LineBytes/100 {
			t.Fatalf("second pass misses = %d, want ~0", misses)
		}
	}
}

func TestWorkingSetExceedsLLC(t *testing.T) {
	h := MustTable3()
	// 32 MB streaming working set > 8 MB LLC: every pass misses.
	const ws = 32 << 20
	for pass := 0; pass < 2; pass++ {
		misses := 0
		for a := int64(0); a < ws; a += LineBytes {
			if len(h.Access(a, false)) > 0 {
				misses++
			}
		}
		if pass == 1 && misses < ws/LineBytes*9/10 {
			t.Fatalf("streaming pass misses = %d of %d, want nearly all", misses, ws/LineBytes)
		}
	}
}

func TestDirtyWritebackReachesMemory(t *testing.T) {
	h := MustTable3()
	// Dirty a large region, then stream a disjoint larger region to force
	// evictions; some write-backs must reach memory.
	const region = 16 << 20
	for a := int64(0); a < region; a += LineBytes {
		h.Access(a, true)
	}
	wbs := 0
	for a := int64(region); a < 3*region; a += LineBytes {
		for _, m := range h.Access(a, false) {
			if m.Write {
				wbs++
			}
		}
	}
	if wbs == 0 {
		t.Fatal("no write-backs reached memory after evicting a dirty region")
	}
}

func TestWritebackAddressesComeFromDirtiedRegion(t *testing.T) {
	h := MustTable3()
	const region = 16 << 20
	for a := int64(0); a < region; a += LineBytes {
		h.Access(a, true)
	}
	for a := int64(region); a < 3*region; a += LineBytes {
		for _, m := range h.Access(a, false) {
			if m.Write && (m.LineAddr < 0 || m.LineAddr >= region/LineBytes) {
				t.Fatalf("write-back line %d outside dirtied region", m.LineAddr)
			}
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Tiny single-level cache: 2 sets x 2 ways.
	h, err := NewHierarchy([]Config{{SizeBytes: 4 * LineBytes, Ways: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// All of these map to set 0 (even line addresses).
	a := int64(0 * LineBytes * 2)
	b := int64(2 * LineBytes * 2)
	c := int64(4 * LineBytes * 2)
	h.Access(a, false)
	h.Access(b, false)
	h.Access(a, false) // a is now MRU
	h.Access(c, false) // evicts b (LRU)
	if got := h.Access(a, false); len(got) != 0 {
		t.Fatal("a should still be cached")
	}
	if got := h.Access(b, false); len(got) == 0 {
		t.Fatal("b should have been evicted")
	}
}

func TestMissRatioAccounting(t *testing.T) {
	h := MustTable3()
	for i := 0; i < 1000; i++ {
		h.Access(int64(i)*LineBytes, false)
	}
	stats := h.Stats()
	if stats[0].Accesses != 1000 {
		t.Fatalf("L1 accesses = %d, want 1000", stats[0].Accesses)
	}
	if h.LevelMissRatio(0) == 0 {
		t.Fatal("streaming should produce L1 misses")
	}
	if h.Levels() != 3 {
		t.Fatalf("Levels = %d", h.Levels())
	}
}

func TestRandomTrafficNoMemoryAmplification(t *testing.T) {
	// Total memory traffic (fills + write-backs) should never exceed
	// 2x the request count.
	h := MustTable3()
	rng := rand.New(rand.NewSource(7))
	var traffic int
	const n = 50000
	for i := 0; i < n; i++ {
		addr := rng.Int63n(64 << 20)
		traffic += len(h.Access(addr, rng.Intn(2) == 0))
	}
	if traffic > 2*n {
		t.Fatalf("memory traffic %d exceeds 2x requests %d", traffic, n)
	}
}

func TestEmptyHierarchyRejected(t *testing.T) {
	if _, err := NewHierarchy(nil); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
}

// TestResetMatchesFresh is a property test: whatever traffic a hierarchy has
// seen, Reset leaves it behaving exactly like a freshly built one, access by
// access and in every level's counters.
func TestResetMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		used := MustTable3()
		for i := 0; i < 20000+rng.Intn(20000); i++ {
			used.Access(rng.Int63n(64<<20), rng.Intn(2) == 0)
		}
		used.Reset()
		fresh, err := NewHierarchy(Table3())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50000; i++ {
			// A footprint past the LLC mixes hits, misses and write-backs.
			addr, write := rng.Int63n(24<<20), rng.Intn(3) == 0
			got, want := used.Access(addr, write), fresh.Access(addr, write)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d access %d (%#x, write=%v): reset hierarchy gave %v, fresh gave %v",
					seed, i, addr, write, got, want)
			}
		}
		if got, want := used.Stats(), fresh.Stats(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: reset hierarchy stats %v, fresh %v", seed, got, want)
		}
	}
}
