package trace

import "fmt"

// Mixed interleaves several generators into one merged post-cache stream,
// modeling multiple application copies (or VMs) sharing the device. Each
// component stream is placed at a distinct footprint base; components are
// drawn proportionally to their MAPKI (faster memory traffic appears more
// often per unit of instructions), which is how independently progressing
// applications merge in time.
//
// Generation runs one batch ahead of the caller: while Next plays one
// buffer of packed accesses, a goroutine fills the other (see mixSource).
// The stream is the same, bit for bit, as generating each access on demand.
// A Mixed is not safe for concurrent use.
type Mixed struct {
	src   *mixSource
	cur   []uint64 // the batch Next is playing
	pos   int
	done  chan []uint64 // the fill in flight hands its buffer back here
	instr int64
	// step is the whole part of 1000/wsum, the instructions per merged
	// access; the generator packs the fractional carry into each word.
	step      int64
	footprint int64
}

// mixSource is the generating state. It is its own allocation, apart from
// the consumer's cursor and clock, so the caller's per-access writes do not
// share a cache line with the fill goroutine's reads.
type mixSource struct {
	gens     []*Generator
	bases    []int64
	rng      rngSource
	weight   []float64
	wsum     float64
	stepFrac float64
	out      []uint64 // the buffer the next fill writes
	fill     func()   // built once: generate into out, send it on done
}

// A packed access holds the address in bits 0–61, the clock's fractional
// carry in bit 62 and the write flag in bit 63. NewMixed caps the total
// footprint below 2^62 bytes so addresses never reach the flag bits.
const (
	mixBatch     = 4096
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
	done := make(chan []uint64, 1)
	s.fill = func() {
		s.generate(s.out)
		done <- s.out
	}
	return &Mixed{src: s, done: done, step: int64(1000.0 / s.wsum), footprint: total}, nil
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

// refill swaps in the next batch and starts filling the one just played.
// The first call allocates both buffers and generates the first batch
// inline. At most one fill is ever in flight, and it sends on a channel
// with room for its buffer, so a Mixed dropped mid-stream leaves one
// goroutine that finishes its batch and exits.
func (m *Mixed) refill() {
	if m.cur == nil {
		m.cur = make([]uint64, mixBatch)
		m.src.generate(m.cur)
		m.src.out = make([]uint64, mixBatch)
	} else {
		full := <-m.done
		m.src.out = m.cur
		m.cur = full
	}
	m.pos = 0
	go m.src.fill()
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
