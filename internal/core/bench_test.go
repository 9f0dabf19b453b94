package core

import (
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/trace"
)

func benchDTL(b *testing.B) *DTL {
	b.Helper()
	d, err := New(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSMCHit measures the translation fast path: an access whose HSN is
// resident in the L1 segment mapping cache. This is the per-access cost the
// paper's Figure 10 latency overhead rides on, so it must stay allocation
// free.
func BenchmarkSMCHit(b *testing.B) {
	d := benchDTL(b)
	a, err := d.AllocateVM(1, 0, 16*dram.MiB, 0)
	if err != nil {
		b.Fatal(err)
	}
	base := a.AUBases[0]
	now := sim.Time(0)
	if _, err := d.Access(base, false, now); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10
		if _, err := d.Access(base, false, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMCMissWalk measures the full miss path: both SMC levels miss and
// the access walks the DRAM-resident segment mapping table (two SRAM hops
// plus the dense-table load), then refills both cache levels.
func BenchmarkSMCMissWalk(b *testing.B) {
	d := benchDTL(b)
	a, err := d.AllocateVM(1, 0, 16*dram.MiB, 0)
	if err != nil {
		b.Fatal(err)
	}
	base := a.AUBases[0]
	hsn := d.codec.HostSegmentOf(base)
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.smc.invalidate(hsn)
		now += 10
		if _, err := d.Access(base, false, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwapMigration measures one hotness-engine transposition between
// two live segments: mapping-table updates, SMC invalidations, and the
// migration window enqueue/complete cycle (which must recycle its windows
// through the migrator's pool rather than allocate).
func BenchmarkSwapMigration(b *testing.B) {
	d := benchDTL(b)
	if _, err := d.AllocateVM(1, 0, 64*dram.MiB, 0); err != nil {
		b.Fatal(err)
	}
	// Two live segments on channel 0.
	var s1, s2 dram.DSN
	found := 0
	for dsn, hsn := range d.revMap {
		if hsn == dsnFree {
			continue
		}
		if l := d.codec.DecodeDSN(dram.DSN(dsn)); l.Channel != 0 {
			continue
		}
		if found == 0 {
			s1 = dram.DSN(dsn)
		} else {
			s2 = dram.DSN(dsn)
			break
		}
		found++
	}
	if s1 == s2 {
		b.Fatal("could not find two live segments on channel 0")
	}
	now := sim.Time(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.hot.applySwap(s1, s2, now)
		now = d.mig.busyUntil[0] + 1
		d.mig.completeUpTo(now)
	}
}

// migratingAccessPath builds the state the Fig. 14 self-refresh replay spends
// most of its time in — there, about 34 copy windows are queued or copying on
// each channel on average and 73% of accesses arrive while any are — and
// returns one step of its access stream. A data-caching trace reads and
// writes an 8 GiB VM on the Fig. 14 device while perChannel windows stay in
// flight on every channel, and every 64th access writes into a segment whose
// copy is in flight. The windows only time copies (the mapping does not
// move), so the precomputed stream stays valid however long the run.
func migratingAccessPath(tb testing.TB, perChannel int) func(i int) {
	tb.Helper()
	g := dram.Geometry{
		Channels: 4, RanksPerChannel: 8, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 2 * dram.GiB,
	}
	d, err := New(DefaultConfig(g))
	if err != nil {
		tb.Fatal(err)
	}
	alloc, err := d.AllocateVM(1, 0, 8*dram.GiB, 0)
	if err != nil {
		tb.Fatal(err)
	}
	// Copy live segments into free ones, per channel.
	srcs := make([][]dram.DSN, g.Channels)
	dsts := make([][]dram.DSN, g.Channels)
	for i, hsn := range d.revMap {
		dsn := dram.DSN(i)
		ch := d.codec.DecodeDSN(dsn).Channel
		if hsn == dsnFree {
			dsts[ch] = append(dsts[ch], dsn)
		} else {
			srcs[ch] = append(srcs[ch], dsn)
		}
	}
	next := make([]int, g.Channels)
	refill := func(now sim.Time) {
		for ch, ws := range d.mig.windows {
			for n := len(ws); n < perChannel; n++ {
				k := next[ch]
				next[ch]++
				copyDecoded(d, srcs[ch][k%len(srcs[ch])], dsts[ch][k%len(dsts[ch])], now, "bench")
			}
		}
	}

	p, _ := trace.ProfileByName("data-caching")
	p.FootprintBytes = 8 * dram.GiB
	gen := trace.MustGenerator(p, 1)
	type op struct {
		hpa   dram.HPA
		write bool
	}
	ring := make([]op, 1<<14)
	for i := range ring {
		a := gen.Next()
		ring[i] = op{alloc.AUBases[0] + dram.HPA(a.Addr), a.Write}
	}

	shift := d.codec.SegmentShift()
	now := sim.Time(0)
	refill(now)
	return func(i int) {
		a := ring[i&(len(ring)-1)]
		if i&63 == 0 {
			ws := d.mig.windows[(i>>6)%len(d.mig.windows)]
			w := ws[(i>>8)%len(ws)]
			a = op{dram.HPA(int64(d.revMap[w.src])<<shift) + dram.HPA(i&0xfffc0), true}
		}
		if _, err := d.Access(a.hpa, a.write, now); err != nil {
			tb.Fatal(err)
		}
		now += 2
		if i&1023 == 0 {
			refill(now)
		}
	}
}

// BenchmarkAccessPathMigrating measures DTL.Access with 32 copy windows in
// flight on every channel (see migratingAccessPath): the per-access cost of
// the migrator's retirement check and write-conflict protocol on top of
// translation and DRAM timing.
func BenchmarkAccessPathMigrating(b *testing.B) {
	step := migratingAccessPath(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// TestAccessPathMigratingDoesNotAllocate pins the migrating access path to
// zero allocations: retired windows recycle through the migrator's pool.
func TestAccessPathMigratingDoesNotAllocate(t *testing.T) {
	step := migratingAccessPath(t, 32)
	i := 0
	for ; i < 1<<17; i++ { // warm up past several window retirements
		step(i)
	}
	allocs := testing.AllocsPerRun(1<<14, func() {
		step(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("migrating access path allocates %.2f objects/op, want 0", allocs)
	}
}
