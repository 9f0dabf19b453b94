package trace

import (
	"fmt"
	"sync/atomic"
)

// Mixed interleaves several generators into one merged post-cache stream,
// modeling multiple application copies (or VMs) sharing the device. Each
// component stream is placed at a distinct footprint base; components are
// drawn proportionally to their MAPKI (faster memory traffic appears more
// often per unit of instructions), which is how independently progressing
// applications merge in time.
//
// Generation runs ahead of the caller: while Next plays one buffer of
// packed accesses, a producer goroutine fills the others (see mixSource).
// The stream is the same, bit for bit, as generating each access on demand.
// A Mixed is not safe for concurrent use.
type Mixed struct {
	src   *mixSource
	cur   []uint64 // the batch Next is playing
	pos   int
	instr int64
	// step is the whole part of 1000/wsum, the instructions per merged
	// access; the generator packs the fractional carry into each word.
	step      int64
	footprint int64
}

// mixSource is the generating state. It is its own allocation, apart from
// the consumer's cursor and clock, so the caller's per-access writes do not
// share a cache line with the producer's reads.
type mixSource struct {
	gens     []*Generator
	bases    []int64
	rng      rngSource
	weight   []float64
	wsum     float64
	stepFrac float64
	// Buffers circulate free → producer → full → Next → free. Each
	// channel has room for every buffer, so no send ever blocks.
	free, full chan []uint64
	// running is set while a producer may still take a free buffer; only
	// the goroutine that switches it from false to true may generate.
	running atomic.Bool
	produce func() // built once: fill free buffers until none is left
}

// A packed access holds the address in bits 0–61, the clock's fractional
// carry in bit 62 and the write flag in bit 63. NewMixed caps the total
// footprint below 2^62 bytes so addresses never reach the flag bits.
const (
	mixBatch     = 4096
	mixBuffers   = 3 // one played, two filled ahead
	maxFootprint = 1 << 62
	carryBit     = 1 << 62
	writeBit     = 1 << 63
)

// NewMixed builds a mixed stream. Component i addresses
// [bases[i], bases[i]+footprint_i). The footprints must total less than
// 2^62 bytes.
func NewMixed(profiles []Profile, seed int64) (*Mixed, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("trace: mixed stream needs at least one profile")
	}
	s := &mixSource{}
	var total int64
	for _, p := range profiles {
		// Checked before any generator is built: each one allocates in
		// proportion to its footprint.
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if p.FootprintBytes >= maxFootprint-total {
			return nil, fmt.Errorf("trace: mixed footprint reaches 2^62 bytes at %s", p.Name)
		}
		s.bases = append(s.bases, total)
		total += p.FootprintBytes
		s.weight = append(s.weight, p.MAPKI)
		s.wsum += p.MAPKI
	}
	s.rng.Seed(seed)
	for i, p := range profiles {
		g, err := NewGenerator(p, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		s.gens = append(s.gens, g)
	}
	s.stepFrac = frac(1000.0 / s.wsum)
	s.free = make(chan []uint64, mixBuffers)
	s.full = make(chan []uint64, mixBuffers)
	s.produce = func() {
		for {
			select {
			case buf := <-s.free:
				s.generate(buf)
				s.full <- buf
			default:
				// Out of buffers. One freed after the select, while
				// running still read true, started no producer: look
				// again, and take the run back unless refill has
				// already started another.
				s.running.Store(false)
				if len(s.free) == 0 || !s.running.CompareAndSwap(false, true) {
					return
				}
			}
		}
	}
	return &Mixed{src: s, step: int64(1000.0 / s.wsum), footprint: total}, nil
}

// MustMixed is NewMixed that panics on error.
func MustMixed(profiles []Profile, seed int64) *Mixed {
	m, err := NewMixed(profiles, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// TotalFootprint reports the combined footprint of all components.
func (m *Mixed) TotalFootprint() int64 { return m.footprint }

// Components reports the number of merged streams.
func (m *Mixed) Components() int { return len(m.src.gens) }

// Next returns the next access of the merged stream. Addr is offset by the
// component's base; Instr is a merged virtual instruction clock advancing at
// the aggregate rate.
func (m *Mixed) Next() Access {
	if m.pos == len(m.cur) {
		m.refill()
	}
	w := m.cur[m.pos]
	m.pos++
	// Aggregate instruction clock: accesses arrive at summed MAPKI.
	m.instr += m.step + int64(w>>62&1)
	return Access{Addr: int64(w &^ (carryBit | writeBit)), Write: w&writeBit != 0, Instr: m.instr}
}

// refill hands the played batch back and takes the next one. The first
// call allocates the buffers and generates the first batch inline. The
// producer exits when it finds no free buffer, and refill starts it again;
// one producer at a time and first-in, first-out channels keep the stream
// in order. A Mixed dropped mid-stream leaves at most one producer, which
// fills the free buffers and exits.
func (m *Mixed) refill() {
	s := m.src
	if m.cur == nil {
		first := make([]uint64, mixBatch)
		s.generate(first)
		s.full <- first
		for i := 1; i < mixBuffers; i++ {
			s.free <- make([]uint64, mixBatch)
		}
	} else {
		s.free <- m.cur
	}
	if s.running.CompareAndSwap(false, true) {
		go s.produce()
	}
	m.cur = <-s.full
	m.pos = 0
}

// generate fills buf with the next len(buf) packed accesses.
func (s *mixSource) generate(buf []uint64) {
	for j := range buf {
		i := s.pick()
		a := s.gens[i].Next()
		w := uint64(a.Addr + s.bases[i])
		if a.Write {
			w |= writeBit
		}
		if s.rng.Float64() < s.stepFrac {
			w |= carryBit
		}
		buf[j] = w
	}
}

func (s *mixSource) pick() int {
	x := s.rng.Float64() * s.wsum
	for i, w := range s.weight {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(s.weight) - 1
}

func frac(f float64) float64 { return f - float64(int64(f)) }

// StrideBuckets are the Fig. 9 stride classes, upper bounds in bytes; the
// final class is ">= 4MB".
var StrideBuckets = []int64{
	4 << 10,  // < 4KB
	64 << 10, // < 64KB
	1 << 20,  // < 1MB
	4 << 20,  // < 4MB
}

// StrideBucketLabels renders the bucket names, aligned with the histogram
// returned by StrideDistribution (last entry is the >=4MB class).
func StrideBucketLabels() []string {
	return []string{"<4KB", "<64KB", "<1MB", "<4MB", ">=4MB"}
}

// StrideDistribution consumes n accesses from next and returns the fraction
// of consecutive-access strides falling into each Fig. 9 class.
func StrideDistribution(next func() Access, n int) []float64 {
	counts := make([]int64, len(StrideBuckets)+1)
	var prev int64
	havePrev := false
	for i := 0; i < n; i++ {
		a := next()
		if havePrev {
			d := a.Addr - prev
			if d < 0 {
				d = -d
			}
			idx := len(StrideBuckets)
			for bi, ub := range StrideBuckets {
				if d < ub {
					idx = bi
					break
				}
			}
			counts[idx]++
		}
		prev = a.Addr
		havePrev = true
	}
	total := int64(n - 1)
	out := make([]float64, len(counts))
	if total <= 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// ColdFraction consumes n accesses and classifies the footprint's segments
// of the given granularity as hot or cold: a segment is cold when its mean
// inter-access reuse distance exceeds threshold instructions. Segments of
// the footprint that are never touched within the window are cold by
// definition (their reuse distance exceeds any threshold), matching
// Fig. 10's ">10M memory instructions" criterion. It returns the cold
// fraction over all footprint segments.
func ColdFraction(next func() Access, n int, footprint, granularity int64, threshold int64) float64 {
	type segStat struct {
		last     int64
		gapSum   int64
		gapCount int64
	}
	stats := make(map[int64]*segStat)
	var lastInstr int64
	for i := 0; i < n; i++ {
		a := next()
		seg := a.Addr / granularity
		s, ok := stats[seg]
		if !ok {
			stats[seg] = &segStat{last: a.Instr}
		} else {
			s.gapSum += a.Instr - s.last
			s.gapCount++
			s.last = a.Instr
		}
		lastInstr = a.Instr
	}
	totalSegs := (footprint + granularity - 1) / granularity
	if totalSegs == 0 {
		return 0
	}
	cold := int(totalSegs) - len(stats) // never-touched segments
	for _, s := range stats {
		if s.gapCount == 0 {
			// Touched once and never again within the window: treat the
			// remaining window as its reuse distance.
			if lastInstr-s.last > threshold {
				cold++
			}
			continue
		}
		if s.gapSum/s.gapCount > threshold {
			cold++
		}
	}
	return float64(cold) / float64(totalSegs)
}
