package trace

import "fmt"

// Mixed interleaves several generators into one merged post-cache stream,
// modeling multiple application copies (or VMs) sharing the device. Each
// component stream is placed at a distinct footprint base; components are
// drawn proportionally to their MAPKI (faster memory traffic appears more
// often per unit of instructions), which is how independently progressing
// applications merge in time.
type Mixed struct {
	gens   []*Generator
	bases  []int64
	rng    rngSource
	weight []float64
	wsum   float64
	instr  int64
	// step and stepFrac split 1000/wsum, the instructions per merged
	// access, into whole and fractional parts once, in NewMixed.
	step     int64
	stepFrac float64
}

// NewMixed builds a mixed stream. Component i addresses
// [bases[i], bases[i]+footprint_i).
func NewMixed(profiles []Profile, seed int64) (*Mixed, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("trace: mixed stream needs at least one profile")
	}
	m := &Mixed{}
	m.rng.Seed(seed)
	var base int64
	for i, p := range profiles {
		g, err := NewGenerator(p, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		m.gens = append(m.gens, g)
		m.bases = append(m.bases, base)
		base += p.FootprintBytes
		m.weight = append(m.weight, p.MAPKI)
		m.wsum += p.MAPKI
	}
	m.step = int64(1000.0 / m.wsum)
	m.stepFrac = frac(1000.0 / m.wsum)
	return m, nil
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
func (m *Mixed) TotalFootprint() int64 {
	last := len(m.gens) - 1
	return m.bases[last] + m.gens[last].Profile().FootprintBytes
}

// Components reports the number of merged streams.
func (m *Mixed) Components() int { return len(m.gens) }

// Next returns the next access of the merged stream. Addr is offset by the
// component's base; Instr is a merged virtual instruction clock advancing at
// the aggregate rate.
func (m *Mixed) Next() Access {
	i := m.pick()
	a := m.gens[i].Next()
	a.Addr += m.bases[i]
	// Aggregate instruction clock: accesses arrive at summed MAPKI.
	m.instr += m.step + boolToI64(m.rng.Float64() < m.stepFrac)
	a.Instr = m.instr
	return a
}

func (m *Mixed) pick() int {
	x := m.rng.Float64() * m.wsum
	for i, w := range m.weight {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(m.weight) - 1
}

func frac(f float64) float64 { return f - float64(int64(f)) }

func boolToI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

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
