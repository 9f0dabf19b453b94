// Package trace generates synthetic CloudSuite-like memory access traces.
//
// The paper's mechanisms consume only the statistics of the post-LLC access
// stream: memory accesses per kilo-instruction (Table 4), the access-stride
// distribution (Figure 9), and the hot/cold segment skew that determines
// reuse distance (Figure 10). Each Profile is calibrated to those published
// statistics; the generators are deterministic given a seed.
//
// Two layers are provided:
//
//   - Generator.Next returns post-cache accesses directly (used by the DTL
//     power simulations, where cache simulation would only rediscover the
//     Table 4 rates we calibrated to).
//   - Generator.NextRaw returns pre-cache accesses whose cache-filtered rate
//     reproduces the profile's MAPKI (used by the Table 4 and cache-path
//     experiments).
package trace

import "fmt"

// Access is one generated memory access.
type Access struct {
	// Addr is the byte address relative to the workload's footprint base.
	Addr int64
	// Write marks store traffic.
	Write bool
	// Instr is the cumulative retired-instruction count at this access,
	// used for reuse-distance (Fig. 10) and replay-rate computations.
	Instr int64
}

// Profile describes one synthetic workload.
type Profile struct {
	// Name identifies the workload (CloudSuite benchmark name).
	Name string
	// MAPKI is the post-cache memory accesses per kilo-instruction target
	// (Table 4).
	MAPKI float64
	// FootprintBytes is the resident memory footprint addressed by the
	// generator. Experiments override it to match their allocation sizes.
	FootprintBytes int64
	// HotFraction is the fraction of 2 MB segments considered hot.
	HotFraction float64
	// HotBias is the probability that an access run lands in the hot set.
	HotBias float64
	// RunLength is the mean number of consecutive line accesses per run;
	// long runs model streaming workloads with narrow post-cache strides.
	RunLength float64
	// RunStride is the byte stride within a run (usually one cache line).
	RunStride int64
	// WriteFraction is the probability an access is a store.
	WriteFraction float64
	// UntouchedFraction is the share of the footprint that is allocated
	// but never accessed (ballooned/over-provisioned VM memory). These
	// segments are what hotness-aware self-refresh consolidates first.
	UntouchedFraction float64
	// DriftPeriod, when positive, rotates part of the hot set every that
	// many accesses, modeling the slow working-set churn the paper cites
	// ("data access patterns remain relatively stable for minutes to
	// hours"). Zero disables drift.
	DriftPeriod int
	// DriftFraction is the share of the hot set replaced per rotation.
	DriftFraction float64
}

// Validate checks profile parameters.
func (p Profile) Validate() error {
	switch {
	case p.MAPKI <= 0:
		return fmt.Errorf("trace: %s: MAPKI must be positive", p.Name)
	case p.FootprintBytes < SegmentBytes:
		return fmt.Errorf("trace: %s: footprint %d below one segment", p.Name, p.FootprintBytes)
	case p.HotFraction <= 0 || p.HotFraction > 1:
		return fmt.Errorf("trace: %s: hot fraction %f out of (0,1]", p.Name, p.HotFraction)
	case p.HotBias < 0 || p.HotBias > 1:
		return fmt.Errorf("trace: %s: hot bias %f out of [0,1]", p.Name, p.HotBias)
	case p.RunLength < 1:
		return fmt.Errorf("trace: %s: run length %f below 1", p.Name, p.RunLength)
	case p.RunStride <= 0:
		return fmt.Errorf("trace: %s: run stride %d must be positive", p.Name, p.RunStride)
	case p.WriteFraction < 0 || p.WriteFraction > 1:
		return fmt.Errorf("trace: %s: write fraction %f out of [0,1]", p.Name, p.WriteFraction)
	case p.UntouchedFraction < 0 || p.UntouchedFraction >= 1:
		return fmt.Errorf("trace: %s: untouched fraction %f out of [0,1)", p.Name, p.UntouchedFraction)
	case p.DriftPeriod < 0:
		return fmt.Errorf("trace: %s: drift period %d must be non-negative", p.Name, p.DriftPeriod)
	case p.DriftFraction < 0 || p.DriftFraction > 1:
		return fmt.Errorf("trace: %s: drift fraction %f out of [0,1]", p.Name, p.DriftFraction)
	}
	return nil
}

// SegmentBytes is the hot/cold bookkeeping granularity used by profiles
// (equal to the paper's default 2 MB translation segment).
const SegmentBytes = 2 << 20

// LineBytes is the access granularity.
const LineBytes = 64

// CloudSuite returns the ten calibrated workload profiles with the Table 4
// MAPKI values. Data-serving, Media-streaming and Web-serving carry long
// sequential runs (the three "narrow stride" applications of Fig. 9); the
// analytics workloads are run-poor and jump-dominated.
func CloudSuite() []Profile {
	mk := func(name string, mapki, hotFrac, hotBias, runLen float64) Profile {
		return Profile{
			Name:              name,
			MAPKI:             mapki,
			FootprintBytes:    2 << 30,
			HotFraction:       hotFrac,
			HotBias:           hotBias,
			RunLength:         runLen,
			RunStride:         LineBytes,
			WriteFraction:     0.3,
			UntouchedFraction: 0.3,
		}
	}
	return []Profile{
		mk("data-analytics", 1.9, 0.15, 0.95, 1.6),
		mk("data-caching", 1.5, 0.12, 0.96, 1.4),
		mk("data-serving", 4.2, 0.18, 0.94, 24),
		mk("django-workload", 0.8, 0.10, 0.96, 1.3),
		mk("fb-oss-performance", 3.6, 0.15, 0.95, 1.8),
		mk("graph-analytics", 6.5, 0.22, 0.92, 1.2),
		mk("in-memory-analytics", 2.5, 0.18, 0.94, 1.5),
		mk("media-streaming", 4.6, 0.15, 0.95, 48),
		mk("web-search", 0.7, 0.12, 0.96, 1.4),
		mk("web-serving", 0.7, 0.12, 0.95, 16),
	}
}

// ProfileByName returns the CloudSuite profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range CloudSuite() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown profile %q", name)
}

// Generator produces a deterministic access stream for one profile.
// Not safe for concurrent use.
type Generator struct {
	p   Profile
	rng rngSource

	segments    int64
	hotSegments []int64 // shuffled segment ids designated hot
	touchable   []int64 // segment ids that ever receive accesses

	instr      int64
	instrGap   float64 // instructions per post-cache access
	instrAcc   float64
	runLeft    int
	runAddr    int64
	rawHotBuf  int64 // size of the always-hit buffer for NextRaw
	driftCount int   // accesses since the last hot-set rotation

	// rawRefsPerKI is the pre-cache memory reference density.
	rawRefsPerKI float64
}

// NewGenerator builds a generator for p seeded with seed.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:            p,
		segments:     p.FootprintBytes / SegmentBytes,
		instrGap:     1000.0 / p.MAPKI,
		rawRefsPerKI: 300,
		rawHotBuf:    16 << 10,
	}
	g.rng.Seed(seed)
	nHot := int64(float64(g.segments) * p.HotFraction)
	if nHot < 1 {
		nHot = 1
	}
	nTouch := int64(float64(g.segments) * (1 - p.UntouchedFraction))
	if nTouch < nHot {
		nTouch = nHot
	}
	// Scatter hot (and untouched) segments uniformly over the footprint so
	// that 4 MB bins mix hot and cold halves independently (the Fig. 10
	// effect) and untouched segments are not physically clustered.
	perm := g.rng.Perm(int(g.segments))
	g.hotSegments = make([]int64, nHot)
	for i := int64(0); i < nHot; i++ {
		g.hotSegments[i] = int64(perm[i])
	}
	g.touchable = make([]int64, nTouch)
	for i := int64(0); i < nTouch; i++ {
		g.touchable[i] = int64(perm[i])
	}
	return g, nil
}

// MustGenerator is NewGenerator that panics on error.
func MustGenerator(p Profile, seed int64) *Generator {
	g, err := NewGenerator(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// Instr reports the cumulative instruction count so far.
func (g *Generator) Instr() int64 { return g.instr }

// pickSegment chooses the segment for a new run: hot-biased over the hot
// list with a concentrated working-set head (cloud services reuse a small
// set of segments intensely, which is what gives the paper's segment
// mapping cache its 85% L1 hit rate), uniform over the touchable footprint
// otherwise.
func (g *Generator) pickSegment() int64 {
	if g.rng.Float64() < g.p.HotBias {
		head := int64(48)
		if head > int64(len(g.hotSegments)) {
			head = int64(len(g.hotSegments))
		}
		if g.rng.Float64() < 0.6 {
			// Working-set head: the hottest few tens of segments.
			return g.hotSegments[g.rng.Int63n(head)]
		}
		// Quadratic skew over the full hot set approximates a zipf body.
		u := g.rng.Float64()
		idx := int64(u * u * float64(len(g.hotSegments)))
		if idx >= int64(len(g.hotSegments)) {
			idx = int64(len(g.hotSegments)) - 1
		}
		return g.hotSegments[idx]
	}
	// Cold traffic is itself skewed: most of the non-hot footprint is
	// touched during initialization and then essentially never again (the
	// bimodality behind the paper's Fig. 10 cold-segment shares), so the
	// deep tail of the touchable set receives a vanishing access rate.
	u := g.rng.Float64()
	idx := int64(u * u * u * float64(len(g.touchable)))
	if idx >= int64(len(g.touchable)) {
		idx = int64(len(g.touchable)) - 1
	}
	return g.touchable[idx]
}

func (g *Generator) startRun() {
	seg := g.pickSegment()
	// Geometric run length with the configured mean.
	n := 1
	pCont := 1 - 1/g.p.RunLength
	for g.rng.Float64() < pCont && n < 4096 {
		n++
	}
	g.runLeft = n
	maxOff := SegmentBytes - int64(n)*g.p.RunStride
	if maxOff < 1 {
		maxOff = 1
	}
	g.runAddr = seg*SegmentBytes + g.rng.Int63n(maxOff)
	g.runAddr &^= LineBytes - 1
}

// maybeDrift rotates part of the hot set when the drift period (positive)
// elapses: the dropped members are replaced with random touchable segments,
// so the previously-hot segments cool down and new ones heat up.
func (g *Generator) maybeDrift() {
	g.driftCount++
	if g.driftCount < g.p.DriftPeriod {
		return
	}
	g.driftCount = 0
	n := int(float64(len(g.hotSegments)) * g.p.DriftFraction)
	for i := 0; i < n; i++ {
		victim := g.rng.Intn(len(g.hotSegments))
		g.hotSegments[victim] = g.touchable[g.rng.Int63n(int64(len(g.touchable)))]
	}
}

// Next returns the next post-cache access.
func (g *Generator) Next() Access {
	if g.p.DriftPeriod > 0 {
		g.maybeDrift()
	}
	if g.runLeft == 0 {
		g.startRun()
	}
	addr := g.runAddr
	g.runAddr += g.p.RunStride
	g.runLeft--

	g.instrAcc += g.instrGap
	adv := int64(g.instrAcc)
	g.instrAcc -= float64(adv)
	g.instr += adv

	return Access{
		Addr:  addr,
		Write: g.rng.Float64() < g.p.WriteFraction,
		Instr: g.instr,
	}
}

// NextRaw returns the next pre-cache access. The stream mixes a small
// always-resident hot buffer (cache hits) with the post-cache pattern
// (cache misses) so that filtering through the Table 3 hierarchy yields
// approximately MAPKI post-cache accesses per kilo-instruction.
func (g *Generator) NextRaw() Access {
	g.instrAcc += 1000.0 / g.rawRefsPerKI
	adv := int64(g.instrAcc)
	g.instrAcc -= float64(adv)
	g.instr += adv

	// The hot-head pattern reuse absorbed by the hierarchy roughly cancels
	// the write-back inflation of dirty evictions under the Table 3
	// configuration, so the demand-miss fraction targets MAPKI directly.
	missFrac := g.p.MAPKI / g.rawRefsPerKI
	if g.rng.Float64() >= missFrac {
		// Cache-resident reference.
		return Access{
			Addr:  g.rng.Int63n(g.rawHotBuf) &^ (LineBytes - 1),
			Write: g.rng.Float64() < g.p.WriteFraction,
			Instr: g.instr,
		}
	}
	if g.runLeft == 0 {
		g.startRun()
	}
	addr := g.runAddr
	g.runAddr += g.p.RunStride
	g.runLeft--
	return Access{
		Addr:  addr,
		Write: g.rng.Float64() < g.p.WriteFraction,
		Instr: g.instr,
	}
}
