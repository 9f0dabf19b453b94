package dram

// DPA is a DRAM device physical address: the post-translation address that
// selects a (rank, channel, segment, offset) tuple inside the device.
//
// Layout (Figure 6), from most to least significant:
//
//	| rank | segment index within (rank,channel) | channel | segment offset |
//
// Rank bits occupy the most significant positions so that ranks are NOT
// interleaved: consecutive device addresses stay within a rank until an
// entire rank's worth of segments has been consumed. Channel bits sit
// immediately above the segment offset so that consecutive segments rotate
// across channels, preserving channel-level parallelism for every VM.
//
// When the channel, rank, bank and per-(rank,channel) segment counts are
// all powers of two, as in every paper geometry, AddressCodec decodes by
// literal bit slicing (shifts and masks). Other counts (e.g. the 6-rank
// configurations of Figure 2) decode by div/mod arithmetic with the same
// ordering; on power-of-two counts the two agree for every address.
type DPA int64

// HPA is a host physical address as issued over CXL, before DTL translation.
type HPA int64

// DSN is a DRAM segment number: DPA >> log2(segment size). It identifies a
// physical segment slot in the device.
type DSN int64

// HSN is a host segment number: HPA >> log2(segment size). It decomposes
// into host ID, allocation-unit (AU) ID and AU offset (Figure 4).
type HSN int64

// Loc is a fully decoded device segment location.
type Loc struct {
	Rank    int   // rank index within a channel
	Channel int   // channel index
	Index   int64 // segment index within the (rank, channel) pair
}

// AddressCodec converts between DPA/DSN values and decoded locations for a
// fixed geometry. All methods are pure; build one with NewAddressCodec.
type AddressCodec struct {
	geom        Geometry
	segShift    uint // log2(segment size)
	channels    int64
	segsPerRkCh int64

	// pow2 selects the shift/mask decode: every count below is a power of
	// two, so each div/mod by it is a shift/mask on a non-negative value.
	// Negative inputs always take the div/mod path, whose rounding differs.
	pow2     bool
	chShift  uint // log2(channels)
	rkShift  uint // log2(ranks per channel)
	idxShift uint // log2(segments per (rank, channel))
	rowShift uint // log2(row block × banks per rank)
	chMask   int64
	rkMask   int64
	idxMask  int64
	bankMask int64
}

// NewAddressCodec builds a codec for g.
func NewAddressCodec(g Geometry) (*AddressCodec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	segs := g.SegmentsPerRank()
	return &AddressCodec{
		geom:        g,
		segShift:    log2(g.SegmentBytes),
		channels:    int64(g.Channels),
		segsPerRkCh: segs,
		pow2: isPow2(int64(g.Channels)) && isPow2(int64(g.RanksPerChannel)) &&
			isPow2(int64(g.BanksPerRank)) && isPow2(segs),
		chShift:  log2(int64(g.Channels)),
		rkShift:  log2(int64(g.RanksPerChannel)),
		idxShift: log2(segs),
		rowShift: rowBlockShift + log2(int64(g.BanksPerRank)),
		chMask:   int64(g.Channels) - 1,
		rkMask:   int64(g.RanksPerChannel) - 1,
		idxMask:  segs - 1,
		bankMask: int64(g.BanksPerRank) - 1,
	}, nil
}

// MustCodec is NewAddressCodec that panics on error, for tests and examples
// with known-good geometry.
func MustCodec(g Geometry) *AddressCodec {
	c, err := NewAddressCodec(g)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the geometry the codec was built for.
func (c *AddressCodec) Geometry() Geometry { return c.geom }

// SegmentShift reports log2 of the segment size.
func (c *AddressCodec) SegmentShift() uint { return c.segShift }

// SegmentOf reports the DSN containing the device address.
func (c *AddressCodec) SegmentOf(a DPA) DSN { return DSN(int64(a) >> c.segShift) }

// HostSegmentOf reports the HSN containing the host address.
func (c *AddressCodec) HostSegmentOf(a HPA) HSN { return HSN(int64(a) >> c.segShift) }

// OffsetOf reports the byte offset of a within its segment.
func (c *AddressCodec) OffsetOf(a DPA) int64 { return int64(a) & (c.geom.SegmentBytes - 1) }

// DecodeDSN splits a DSN into its rank, channel and per-(rank,channel)
// index.
func (c *AddressCodec) DecodeDSN(s DSN) Loc {
	v := int64(s)
	if !c.pow2 || v < 0 {
		return c.decodeDSNDiv(v)
	}
	block := v >> c.chShift
	return Loc{
		Channel: int(v & c.chMask),
		Index:   block & c.idxMask,
		Rank:    int(block >> c.idxShift),
	}
}

// decodeDSNDiv is DecodeDSN by div/mod, for any geometry and sign.
func (c *AddressCodec) decodeDSNDiv(v int64) Loc {
	ch := v % c.channels
	block := v / c.channels
	return Loc{
		Channel: int(ch),
		Index:   block % c.segsPerRkCh,
		Rank:    int(block / c.segsPerRkCh),
	}
}

// EncodeDSN is the inverse of DecodeDSN.
func (c *AddressCodec) EncodeDSN(l Loc) DSN {
	block := int64(l.Rank)*c.segsPerRkCh + l.Index
	return DSN(block*c.channels + int64(l.Channel))
}

// DSNToDPA returns the first device address of segment s.
func (c *AddressCodec) DSNToDPA(s DSN) DPA { return DPA(int64(s) << c.segShift) }

// Compose builds a full DPA from a segment and an in-segment offset.
func (c *AddressCodec) Compose(s DSN, offset int64) DPA {
	return DPA(int64(s)<<c.segShift | offset&(c.geom.SegmentBytes-1))
}

// RankOf reports the (channel, rank) pair servicing the device address.
func (c *AddressCodec) RankOf(a DPA) (channel, rank int) {
	v := int64(a) >> c.segShift
	if !c.pow2 || v < 0 {
		l := c.decodeDSNDiv(v)
		return l.Channel, l.Rank
	}
	return int(v & c.chMask), int(v >> c.chShift >> c.idxShift)
}

// BankOf reports the bank within the rank servicing the device address.
// Banks are interleaved across 4 KiB row-buffer-sized blocks inside a
// segment, the conventional low-order bank hash.
func (c *AddressCodec) BankOf(a DPA) int {
	if !c.pow2 || a < 0 {
		return c.bankOfDiv(a)
	}
	return int(int64(a) >> rowBlockShift & c.bankMask)
}

// RowOf reports the DRAM row addressed within the bank (used for row-buffer
// hit/miss decisions in the timing model).
func (c *AddressCodec) RowOf(a DPA) int64 {
	if !c.pow2 || a < 0 {
		return c.rowOfDiv(a)
	}
	return int64(a) >> c.rowShift
}

// rowBlock is the 4 KiB row-buffer-sized block banks interleave over.
const (
	rowBlock      = 4 << 10
	rowBlockShift = 12 // log2(rowBlock)
)

// bankOfDiv and rowOfDiv are BankOf and RowOf by div/mod, for any geometry
// and sign.
func (c *AddressCodec) bankOfDiv(a DPA) int {
	return int((int64(a) / rowBlock) % int64(c.geom.BanksPerRank))
}

func (c *AddressCodec) rowOfDiv(a DPA) int64 {
	return int64(a) / rowBlock / int64(c.geom.BanksPerRank)
}

// GlobalRank flattens a (channel, rank) pair into a device-wide rank id.
func (c *AddressCodec) GlobalRank(channel, rank int) int {
	return rank*c.geom.Channels + channel
}

// SplitGlobalRank is the inverse of GlobalRank.
func (c *AddressCodec) SplitGlobalRank(gr int) (channel, rank int) {
	return gr % c.geom.Channels, gr / c.geom.Channels
}

// RankInterleavedDSN maps a sequential segment number to a device segment
// under conventional fine-grained rank interleaving: consecutive segments
// rotate over channels first, then over ranks, so adjacent traffic spreads
// across every rank. This is the baseline mapping the paper's Figure 5
// compares against (DTL itself never uses it).
func (c *AddressCodec) RankInterleavedDSN(seq int64) DSN {
	if !c.pow2 || seq < 0 {
		return c.rankInterleavedDSNDiv(seq)
	}
	ch := seq & c.chMask
	rest := seq >> c.chShift
	rank := rest & c.rkMask
	idx := rest >> c.rkShift & c.idxMask
	return DSN((rank<<c.idxShift|idx)<<c.chShift | ch)
}

// rankInterleavedDSNDiv is RankInterleavedDSN by div/mod, for any geometry
// and sign.
func (c *AddressCodec) rankInterleavedDSNDiv(seq int64) DSN {
	ranks := int64(c.geom.RanksPerChannel)
	ch := seq % c.channels
	rest := seq / c.channels
	rank := rest % ranks
	idx := rest / ranks
	return c.EncodeDSN(Loc{Rank: int(rank), Channel: int(ch), Index: idx % c.segsPerRkCh})
}

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
