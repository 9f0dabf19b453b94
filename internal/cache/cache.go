// Package cache implements the host-side cache hierarchy used to turn raw
// memory traces into post-cache (LLC-miss) traces, with the Table 3
// configuration: L1d 32 KB 8-way, L2 1 MB 8-way, LLC 8 MB 16-way, all LRU
// with 64-byte lines, write-allocate and write-back.
package cache

import (
	"fmt"
)

// LineBytes is the cache line size across the hierarchy.
const LineBytes = 64

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
}

// Validate checks the configuration against the line size.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: size and ways must be positive: %+v", c)
	}
	if c.SizeBytes%(c.Ways*LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line %d", c.SizeBytes, c.Ways*LineBytes)
	}
	sets := c.SizeBytes / (c.Ways * LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Table3 returns the paper's host-side configuration.
func Table3() []Config {
	return []Config{
		{SizeBytes: 32 << 10, Ways: 8}, // L1d
		{SizeBytes: 1 << 20, Ways: 8},  // L2
		{SizeBytes: 8 << 20, Ways: 16}, // LLC
	}
}

type way struct {
	tag   int64
	valid bool
	dirty bool
	// lru is a recency stamp; higher = more recent.
	lru uint64
}

// level is one set-associative LRU cache.
type level struct {
	ways    int
	setMask int64
	lines   []way // sets*ways, row-major by set
	stamp   uint64

	accesses int64
	misses   int64
}

func newLevel(c Config) *level {
	sets := c.SizeBytes / (c.Ways * LineBytes)
	return &level{
		ways:    c.Ways,
		setMask: int64(sets - 1),
		lines:   make([]way, sets*c.Ways),
	}
}

// access looks up the line address; on miss it installs the line, returning
// (hit, evictedDirtyLineAddr, hadDirtyEviction).
func (l *level) access(lineAddr int64, write bool) (hit bool, wbAddr int64, wb bool) {
	l.accesses++
	set := int(lineAddr & l.setMask)
	tag := lineAddr // the full line address doubles as the tag
	base := set * l.ways
	l.stamp++

	victim := base
	for i := base; i < base+l.ways; i++ {
		w := &l.lines[i]
		if w.valid && w.tag == tag {
			w.lru = l.stamp
			if write {
				w.dirty = true
			}
			return true, 0, false
		}
		if !w.valid {
			victim = i
		} else if l.lines[victim].valid && w.lru < l.lines[victim].lru {
			victim = i
		}
	}
	l.misses++
	v := &l.lines[victim]
	if v.valid && v.dirty {
		wb = true
		wbAddr = v.tag
	}
	*v = way{tag: tag, valid: true, dirty: write, lru: l.stamp}
	return false, wbAddr, wb
}

// MissRatio reports misses/accesses for the level.
func (l *level) MissRatio() float64 {
	if l.accesses == 0 {
		return 0
	}
	return float64(l.misses) / float64(l.accesses)
}

// MemAccess is a post-cache access emitted toward the memory device.
type MemAccess struct {
	LineAddr int64 // address / LineBytes
	Write    bool
}

// Hierarchy is the full multi-level filter. Not safe for concurrent use.
type Hierarchy struct {
	levels []*level
}

// NewHierarchy builds a hierarchy from the given per-level configs
// (nearest to the core first).
func NewHierarchy(cfgs []Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: need at least one level")
	}
	h := &Hierarchy{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		h.levels = append(h.levels, newLevel(c))
	}
	return h, nil
}

// MustTable3 builds the paper's hierarchy, panicking on error.
func MustTable3() *Hierarchy {
	h, err := NewHierarchy(Table3())
	if err != nil {
		panic(err)
	}
	return h
}

// Access filters one byte-address access through the hierarchy and returns
// the post-cache memory accesses it generates: zero on a hit in any level,
// one demand fill on a full miss, plus any dirty write-backs that cascade
// out of the last level.
func (h *Hierarchy) Access(addr int64, write bool) []MemAccess {
	lineAddr := addr / LineBytes
	var toMem []MemAccess
	// insertWB writes an evicted dirty line into level i; cascading
	// evictions past the last level go to memory.
	var insertWB func(i int, line int64)
	insertWB = func(i int, line int64) {
		if i >= len(h.levels) {
			toMem = append(toMem, MemAccess{LineAddr: line, Write: true})
			return
		}
		if _, wbAddr, wb := h.levels[i].access(line, true); wb {
			insertWB(i+1, wbAddr)
		}
	}
	for i, l := range h.levels {
		hit, wbAddr, wb := l.access(lineAddr, write)
		if wb {
			insertWB(i+1, wbAddr)
		}
		if hit {
			return toMem
		}
	}
	toMem = append(toMem, MemAccess{LineAddr: lineAddr, Write: false})
	return toMem
}

// Reset empties every level and zeroes its counters, leaving the hierarchy
// as NewHierarchy built it without reallocating the line arrays.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		clear(l.lines)
		l.stamp, l.accesses, l.misses = 0, 0, 0
	}
}

// LevelMissRatio reports the miss ratio of level i (0-based from the core).
func (h *Hierarchy) LevelMissRatio(i int) float64 { return h.levels[i].MissRatio() }

// Levels reports the number of configured levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Stats summarizes accesses and misses per level.
func (h *Hierarchy) Stats() []struct{ Accesses, Misses int64 } {
	out := make([]struct{ Accesses, Misses int64 }, len(h.levels))
	for i, l := range h.levels {
		out[i].Accesses = l.accesses
		out[i].Misses = l.misses
	}
	return out
}
