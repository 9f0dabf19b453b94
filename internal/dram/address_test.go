package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Geometry)
		wantErr bool
	}{
		{"default ok", func(g *Geometry) {}, false},
		{"zero channels", func(g *Geometry) { g.Channels = 0 }, true},
		{"negative ranks", func(g *Geometry) { g.RanksPerChannel = -1 }, true},
		{"zero banks", func(g *Geometry) { g.BanksPerRank = 0 }, true},
		{"non pow2 segment", func(g *Geometry) { g.SegmentBytes = 3 * MiB }, true},
		{"rank not multiple of segment", func(g *Geometry) { g.RankBytes = 3*MiB + 1 }, true},
		{"4MB segment ok", func(g *Geometry) { g.SegmentBytes = 4 * MiB }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := Default1TB()
			tc.mutate(&g)
			err := g.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() err=%v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestGeometryCapacities(t *testing.T) {
	g := Default1TB()
	if got := g.TotalBytes(); got != 1*TiB {
		t.Errorf("TotalBytes = %d, want 1TiB", got)
	}
	if got := g.TotalRanks(); got != 32 {
		t.Errorf("TotalRanks = %d, want 32", got)
	}
	if got := g.SegmentsPerRank(); got != 16384 {
		t.Errorf("SegmentsPerRank = %d, want 16384", got)
	}
	if got := g.TotalSegments(); got != 32*16384 {
		t.Errorf("TotalSegments = %d, want %d", got, 32*16384)
	}
	if got := g.RankGroupBytes(); got != 128*GiB {
		t.Errorf("RankGroupBytes = %d, want 128GiB", got)
	}

	g4 := Hypothetical4TB()
	if got := g4.TotalBytes(); got != 4*TiB {
		t.Errorf("4TB TotalBytes = %d, want 4TiB", got)
	}
}

func TestCodecSupportsNonPow2Ranks(t *testing.T) {
	// Figure 2 sweeps 8/6/4/2 ranks per channel; 6 must decode cleanly.
	g := Default1TB()
	g.RanksPerChannel = 6
	c, err := NewAddressCodec(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Loc{{0, 0, 0}, {5, 3, 100}, {2, 1, g.SegmentsPerRank() - 1}} {
		if got := c.DecodeDSN(c.EncodeDSN(l)); got != l {
			t.Fatalf("round trip %+v -> %+v", l, got)
		}
	}
}

func TestRankInterleavedDSNRotatesRanks(t *testing.T) {
	c := MustCodec(Default1TB())
	g := c.Geometry()
	// Consecutive sequential segments must rotate channels first, then
	// ranks, covering every (channel, rank) pair before reusing one.
	seen := map[[2]int]bool{}
	pairs := g.Channels * g.RanksPerChannel
	for seq := int64(0); seq < int64(pairs); seq++ {
		l := c.DecodeDSN(c.RankInterleavedDSN(seq))
		key := [2]int{l.Channel, l.Rank}
		if seen[key] {
			t.Fatalf("pair %v reused before full rotation at seq %d", key, seq)
		}
		seen[key] = true
	}
	if len(seen) != pairs {
		t.Fatalf("covered %d pairs, want %d", len(seen), pairs)
	}
}

func TestDSNRoundTrip(t *testing.T) {
	c := MustCodec(Default1TB())
	g := c.Geometry()
	for rank := 0; rank < g.RanksPerChannel; rank++ {
		for ch := 0; ch < g.Channels; ch++ {
			for _, idx := range []int64{0, 1, 7, g.SegmentsPerRank() - 1} {
				l := Loc{Rank: rank, Channel: ch, Index: idx}
				got := c.DecodeDSN(c.EncodeDSN(l))
				if got != l {
					t.Fatalf("round trip %+v -> %+v", l, got)
				}
			}
		}
	}
}

func TestDSNRoundTripProperty(t *testing.T) {
	c := MustCodec(Default1TB())
	total := c.Geometry().TotalSegments()
	f := func(raw int64) bool {
		s := DSN(((raw % total) + total) % total)
		return c.EncodeDSN(c.DecodeDSN(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelInterleavingAtSegmentGranularity(t *testing.T) {
	// Consecutive segments (consecutive DSNs) must rotate across channels
	// while staying in the same rank until the rank is exhausted (Fig. 6).
	c := MustCodec(Default1TB())
	prev := c.DecodeDSN(0)
	if prev.Channel != 0 || prev.Rank != 0 {
		t.Fatalf("segment 0 decodes to %+v, want ch0 rk0", prev)
	}
	for s := DSN(1); s < 64; s++ {
		l := c.DecodeDSN(s)
		if l.Rank != 0 {
			t.Fatalf("segment %d in rank %d, want rank 0 (no rank interleaving)", s, l.Rank)
		}
		wantCh := int(int64(s) % int64(c.Geometry().Channels))
		if l.Channel != wantCh {
			t.Fatalf("segment %d in channel %d, want %d", s, l.Channel, wantCh)
		}
	}
}

func TestRankBitsMostSignificant(t *testing.T) {
	c := MustCodec(Default1TB())
	g := c.Geometry()
	perRank := g.SegmentsPerRank() * int64(g.Channels)
	for rank := 0; rank < g.RanksPerChannel; rank++ {
		first := DSN(int64(rank) * perRank)
		last := DSN(int64(rank+1)*perRank - 1)
		if got := c.DecodeDSN(first).Rank; got != rank {
			t.Fatalf("first segment of rank %d decodes to rank %d", rank, got)
		}
		if got := c.DecodeDSN(last).Rank; got != rank {
			t.Fatalf("last segment of rank %d decodes to rank %d", rank, got)
		}
	}
}

func TestComposeAndOffsets(t *testing.T) {
	c := MustCodec(Default1TB())
	s := DSN(12345)
	a := c.Compose(s, 999)
	if got := c.SegmentOf(a); got != s {
		t.Errorf("SegmentOf = %d, want %d", got, s)
	}
	if got := c.OffsetOf(a); got != 999 {
		t.Errorf("OffsetOf = %d, want 999", got)
	}
	if got := c.DSNToDPA(s); got != DPA(int64(s)<<c.SegmentShift()) {
		t.Errorf("DSNToDPA = %d", got)
	}
}

func TestGlobalRankRoundTrip(t *testing.T) {
	c := MustCodec(Default1TB())
	g := c.Geometry()
	seen := make(map[int]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.RanksPerChannel; rk++ {
			gr := c.GlobalRank(ch, rk)
			if seen[gr] {
				t.Fatalf("duplicate global rank %d", gr)
			}
			seen[gr] = true
			c2, r2 := c.SplitGlobalRank(gr)
			if c2 != ch || r2 != rk {
				t.Fatalf("SplitGlobalRank(%d) = (%d,%d), want (%d,%d)", gr, c2, r2, ch, rk)
			}
		}
	}
	if len(seen) != g.TotalRanks() {
		t.Fatalf("covered %d global ranks, want %d", len(seen), g.TotalRanks())
	}
}

func TestBankOfWithinRange(t *testing.T) {
	c := MustCodec(Default1TB())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := DPA(rng.Int63n(c.Geometry().TotalBytes()))
		b := c.BankOf(a)
		if b < 0 || b >= c.Geometry().BanksPerRank {
			t.Fatalf("BankOf(%d) = %d out of range", a, b)
		}
	}
}

func TestBankInterleavingWithinSegment(t *testing.T) {
	// Consecutive 4 KiB blocks within a segment should map to different banks.
	c := MustCodec(Default1TB())
	base := c.DSNToDPA(100)
	b0 := c.BankOf(base)
	b1 := c.BankOf(base + 4096)
	if b0 == b1 {
		t.Fatalf("adjacent 4KiB blocks map to same bank %d", b0)
	}
}

func TestRankOfMatchesDecode(t *testing.T) {
	c := MustCodec(Default1TB())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a := DPA(rng.Int63n(c.Geometry().TotalBytes()))
		ch, rk := c.RankOf(a)
		l := c.DecodeDSN(c.SegmentOf(a))
		if ch != l.Channel || rk != l.Rank {
			t.Fatalf("RankOf(%d) = (%d,%d), decode says (%d,%d)", a, ch, rk, l.Channel, l.Rank)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		KiB:       "1KiB",
		2 * MiB:   "2MiB",
		32 * GiB:  "32GiB",
		1 * TiB:   "1TiB",
		3*KiB + 1: "3073B",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestShiftDecodeMatchesDivMod: on power-of-two geometries the codec decodes
// with shifts and masks; it must agree with the div/mod decode on every DSN
// in range and on random device addresses, negative and out-of-range ones
// included. Other geometries (the 6-rank devices of Fig. 2, the 12 GiB ranks
// of the power-down device) must keep the div/mod path.
func TestShiftDecodeMatchesDivMod(t *testing.T) {
	small := Default1TB()
	small.RankBytes = 2 * GiB
	sixRank := Default1TB()
	sixRank.RanksPerChannel = 6
	twelveBank := Default1TB()
	twelveBank.BanksPerRank = 12
	// The power-down experiments' device (fig12, faults, rack): 12 GiB
	// ranks hold 6,144 segments.
	pd := Geometry{Channels: 4, RanksPerChannel: 8, BanksPerRank: 16, SegmentBytes: 2 * MiB, RankBytes: 12 * GiB}
	cases := []struct {
		name string
		g    Geometry
		pow2 bool
	}{
		{"4ch-8rk-32GiB", Default1TB(), true},
		{"4ch-8rk-2GiB", small, true},
		{"8ch-16rk-32GiB", Hypothetical4TB(), true},
		{"4ch-6rk-32GiB", sixRank, false},
		{"12-bank", twelveBank, false},
		{"4ch-8rk-12GiB", pd, false},
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustCodec(tc.g)
			if c.pow2 != tc.pow2 {
				t.Fatalf("shift decode selected = %v, want %v", c.pow2, tc.pow2)
			}
			check := func(a DPA, seq int64) {
				t.Helper()
				s := c.SegmentOf(a)
				want := c.decodeDSNDiv(int64(s))
				if got := c.DecodeDSN(s); got != want {
					t.Fatalf("DecodeDSN(%d) = %+v, div/mod %+v", s, got, want)
				}
				if ch, rk := c.RankOf(a); ch != want.Channel || rk != want.Rank {
					t.Fatalf("RankOf(%d) = (%d,%d), div/mod (%d,%d)", a, ch, rk, want.Channel, want.Rank)
				}
				if got, want := c.BankOf(a), c.bankOfDiv(a); got != want {
					t.Fatalf("BankOf(%d) = %d, div/mod %d", a, got, want)
				}
				if got, want := c.RowOf(a), c.rowOfDiv(a); got != want {
					t.Fatalf("RowOf(%d) = %d, div/mod %d", a, got, want)
				}
				if got, want := c.RankInterleavedDSN(seq), c.rankInterleavedDSNDiv(seq); got != want {
					t.Fatalf("RankInterleavedDSN(%d) = %d, div/mod %d", seq, got, want)
				}
			}
			// Every DSN, at an in-segment offset that steps one row block
			// plus one line per DSN, so the probes cover every bank.
			total := tc.g.TotalSegments()
			for s := int64(0); s < total; s++ {
				off := (s * (rowBlock + 64)) & (tc.g.SegmentBytes - 1)
				check(c.Compose(DSN(s), off), s)
			}
			bytes := tc.g.TotalBytes()
			for i := 0; i < 100_000; i++ {
				a := rng.Int63n(4*bytes) - 2*bytes
				check(DPA(a), a>>c.segShift)
			}
		})
	}
}
