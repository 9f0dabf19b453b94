package core

import (
	"fmt"

	"dtl/internal/dram"
)

// smcEntry is one HSN→DSN mapping held in the set-associative L2.
type smcEntry struct {
	hsn   dram.HSN
	dsn   dram.DSN
	valid bool
	lru   uint64
}

// smc is the two-level segment mapping cache of §3.2: a small
// fully-associative L1 backed by a set-associative L2, both LRU.
type smc struct {
	l1     l1Cache
	l2     []smcEntry // sets x ways, row-major
	l2Mask int64      // sets - 1; the set count is a power of two
	l2Ways int
	stamp  uint64 // L2 recency clock

	l1Hits, l1Misses int64
	l2Hits, l2Misses int64
}

// newSMC builds the cache. Config.Validate refuses an L2 set count that is
// not a power of two, so the set index is a mask; newSMC panics on one.
func newSMC(l1Entries, l2Entries, l2Ways int) *smc {
	sets := l2Entries / l2Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("core: L2 SMC set count %d is not a power of two", sets))
	}
	return &smc{
		l1:     newL1Cache(l1Entries),
		l2:     make([]smcEntry, l2Entries),
		l2Mask: int64(sets - 1),
		l2Ways: l2Ways,
	}
}

// setBase is the index of hsn's first L2 way.
func (c *smc) setBase(hsn dram.HSN) int {
	return int(int64(hsn)&c.l2Mask) * c.l2Ways
}

// lookup returns the cached DSN for hsn and which level hit:
// 1 = L1 hit, 2 = L2 hit (promoted into L1), 0 = miss.
func (c *smc) lookup(hsn dram.HSN) (dram.DSN, int) {
	c.stamp++
	if s := c.l1.get(hsn); s != noSlot {
		c.l1Hits++
		return c.l1.dsn[s], 1
	}
	c.l1Misses++
	base := c.setBase(hsn)
	for i := base; i < base+c.l2Ways; i++ {
		e := &c.l2[i]
		if e.valid && e.hsn == hsn {
			e.lru = c.stamp
			c.l2Hits++
			c.l1.put(hsn, e.dsn)
			return e.dsn, 2
		}
	}
	c.l2Misses++
	return 0, 0
}

// install caches a mapping in both levels (miss-path fill, so hsn is in
// neither).
func (c *smc) install(hsn dram.HSN, dsn dram.DSN) {
	c.stamp++
	c.l1.put(hsn, dsn)
	c.installL2(hsn, dsn)
}

func (c *smc) installL2(hsn dram.HSN, dsn dram.DSN) {
	base := c.setBase(hsn)
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

// invalidate drops any cached mapping for hsn (called after remapping, §3.4:
// "an invalidation of the corresponding entry in the segment mapping cache").
func (c *smc) invalidate(hsn dram.HSN) {
	c.l1.remove(hsn)
	base := c.setBase(hsn)
	for i := base; i < base+c.l2Ways; i++ {
		if c.l2[i].valid && c.l2[i].hsn == hsn {
			c.l2[i].valid = false
		}
	}
}

// invalidateRange drops any cached mapping for the n HSNs from lo, as n
// calls of invalidate would. A span that covers every L2 set several times
// over (n × ways ≥ L2 entries, e.g. a freed 2 GiB allocation unit) sweeps
// the L1 list and the L2 array once instead of probing per HSN.
func (c *smc) invalidateRange(lo dram.HSN, n int64) {
	if n*int64(c.l2Ways) < int64(len(c.l2)) {
		for hsn := lo; hsn < lo+dram.HSN(n); hsn++ {
			c.invalidate(hsn)
		}
		return
	}
	c.l1.removeRange(lo, n)
	for i := range c.l2 {
		if uint64(c.l2[i].hsn-lo) < uint64(n) {
			c.l2[i].valid = false
		}
	}
}

// l1Cache is the fully-associative L1. The hardware matches every entry in
// parallel; the model gets the same constant cost from three structures
// over one slot array: an open-addressed hsn→slot index (linear probing,
// at most a quarter full, backward-shift deletion so it never needs
// tombstones), an intrusive most-recently-used list whose tail is the LRU
// victim, and a stack of free slots. Nothing allocates after newL1Cache.
//
// An HSN occupies at most one slot, and every hit or fill moves its slot to
// the list head, so the tail is always the strict LRU entry. Which free
// slot a fill takes is not observable.
type l1Cache struct {
	hsn        []dram.HSN
	dsn        []dram.DSN
	prev, next []int32 // MRU list links; noSlot ends the list
	head, tail int32   // most and least recently used slots
	free       []int32 // stack of unused slots
	index      []int32 // slot+1 per bucket, 0 when empty
	shift      uint    // 64 - log2(len(index))
}

const noSlot = -1

// l1IndexFactor is the index's buckets per L1 entry, rounded up to a power
// of two. Linear probing's runs lengthen quickly with load; at a quarter
// full a lookup's probe run and a delete's backward shift stay about one
// bucket long, and every L2 promotion or miss fill of a full L1 does both.
// The default 64-entry L1 gets a 1 KiB index.
const l1IndexFactor = 4

func newL1Cache(entries int) l1Cache {
	buckets, bits := 2, uint(1)
	for buckets < l1IndexFactor*entries {
		buckets <<= 1
		bits++
	}
	c := l1Cache{
		hsn:   make([]dram.HSN, entries),
		dsn:   make([]dram.DSN, entries),
		prev:  make([]int32, entries),
		next:  make([]int32, entries),
		head:  noSlot,
		tail:  noSlot,
		free:  make([]int32, entries),
		index: make([]int32, buckets),
		shift: 64 - bits,
	}
	for i := range c.free {
		c.free[i] = int32(entries - 1 - i)
	}
	return c
}

// home is hsn's preferred bucket (Fibonacci hashing: HSNs are dense runs).
func (c *l1Cache) home(hsn dram.HSN) int {
	return int(uint64(hsn) * 0x9e3779b97f4a7c15 >> c.shift)
}

// find returns hsn's bucket and slot, or the empty bucket that ends its
// probe sequence and noSlot.
func (c *l1Cache) find(hsn dram.HSN) (int, int32) {
	mask := len(c.index) - 1
	for b := c.home(hsn); ; b = (b + 1) & mask {
		s := c.index[b] - 1
		if s == noSlot || c.hsn[s] == hsn {
			return b, s
		}
	}
}

// get returns hsn's slot, made most recently used, or noSlot.
func (c *l1Cache) get(hsn dram.HSN) int32 {
	_, s := c.find(hsn)
	if s != noSlot && s != c.head {
		c.unlink(s)
		c.pushFront(s)
	}
	return s
}

// put caches hsn→dsn as the most recently used entry, evicting the least
// recently used one when every slot is taken. hsn must not be cached: the
// SMC fills the L1 only after an L1 miss.
func (c *l1Cache) put(hsn dram.HSN, dsn dram.DSN) {
	if len(c.free) == 0 {
		c.remove(c.hsn[c.tail])
	}
	s := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	b, _ := c.find(hsn)
	c.index[b] = s + 1
	c.hsn[s], c.dsn[s] = hsn, dsn
	c.pushFront(s)
}

// remove drops hsn if cached, closing the hole its bucket leaves by
// shifting back the entries whose probe sequences ran through it.
func (c *l1Cache) remove(hsn dram.HSN) {
	hole, s := c.find(hsn)
	if s == noSlot {
		return
	}
	mask := len(c.index) - 1
	for b := (hole + 1) & mask; c.index[b] != 0; b = (b + 1) & mask {
		// The entry at b may move into the hole only if its home bucket
		// does not lie cyclically within (hole, b].
		if h := c.home(c.hsn[c.index[b]-1]); (b-h)&mask >= (b-hole)&mask {
			c.index[hole] = c.index[b]
			hole = b
		}
	}
	c.index[hole] = 0
	c.unlink(s)
	c.free = append(c.free, s)
}

// removeRange drops every cached HSN in [lo, lo+n). It frees slots in MRU
// order rather than HSN order, which only changes which free slot a later
// fill takes.
func (c *l1Cache) removeRange(lo dram.HSN, n int64) {
	for s := c.head; s != noSlot; {
		next := c.next[s]
		if h := c.hsn[s]; uint64(h-lo) < uint64(n) {
			c.remove(h)
		}
		s = next
	}
}

func (c *l1Cache) pushFront(s int32) {
	c.prev[s], c.next[s] = noSlot, c.head
	if c.head != noSlot {
		c.prev[c.head] = s
	} else {
		c.tail = s
	}
	c.head = s
}

func (c *l1Cache) unlink(s int32) {
	p, n := c.prev[s], c.next[s]
	if p != noSlot {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n != noSlot {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

// SMCStats reports hit/miss counters for both levels.
type SMCStats struct {
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
}

// L1MissRatio reports L1 misses / L1 lookups.
func (s SMCStats) L1MissRatio() float64 {
	n := s.L1Hits + s.L1Misses
	if n == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(n)
}

// L2MissRatio reports L2 misses / L2 lookups (i.e. conditional on L1 miss).
func (s SMCStats) L2MissRatio() float64 {
	n := s.L2Hits + s.L2Misses
	if n == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(n)
}

func (c *smc) stats() SMCStats {
	return SMCStats{L1Hits: c.l1Hits, L1Misses: c.l1Misses, L2Hits: c.l2Hits, L2Misses: c.l2Misses}
}
