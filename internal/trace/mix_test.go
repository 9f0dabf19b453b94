package trace

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// serialMixed is Mixed as it was before generation moved onto a producer
// goroutine: each Next draws the component, generates its access and
// advances the clock on demand. It is the reference the pipelined stream
// must equal.
type serialMixed struct {
	gens     []*Generator
	bases    []int64
	rng      rngSource
	weight   []float64
	wsum     float64
	instr    int64
	step     int64
	stepFrac float64
}

func newSerialMixed(profiles []Profile, seed int64) *serialMixed {
	m := &serialMixed{}
	m.rng.Seed(seed)
	var base int64
	for i, p := range profiles {
		m.gens = append(m.gens, MustGenerator(p, seed+int64(i)*7919))
		m.bases = append(m.bases, base)
		base += p.FootprintBytes
		m.weight = append(m.weight, p.MAPKI)
		m.wsum += p.MAPKI
	}
	m.step = int64(1000.0 / m.wsum)
	m.stepFrac = frac(1000.0 / m.wsum)
	return m
}

func (m *serialMixed) Next() Access {
	x := m.rng.Float64() * m.wsum
	i := len(m.weight) - 1
	for j, w := range m.weight {
		x -= w
		if x < 0 {
			i = j
			break
		}
	}
	a := m.gens[i].Next()
	a.Addr += m.bases[i]
	m.instr += m.step
	if m.rng.Float64() < m.stepFrac {
		m.instr++
	}
	a.Instr = m.instr
	return a
}

// mixedTestSets are profile sets small enough to build many times: the
// whole CloudSuite mix, one profile alone, and a drifting pair.
func mixedTestSets() map[string][]Profile {
	cloud := CloudSuite()
	for i := range cloud {
		cloud[i].FootprintBytes = 64 << 20
	}
	drift, _ := ProfileByName("data-serving")
	drift.FootprintBytes = 256 << 20
	drift.DriftPeriod = 1000
	drift.DriftFraction = 0.25
	graph, _ := ProfileByName("graph-analytics")
	graph.FootprintBytes = 128 << 20
	caching, _ := ProfileByName("data-caching")
	caching.FootprintBytes = 1792 << 20
	caching.HotBias = 0.99
	caching.UntouchedFraction = 0.5
	return map[string][]Profile{
		"cloudsuite": cloud,
		"one":        {caching},
		"drift-pair": {drift, graph},
	}
}

// TestMixedMatchesSerial holds the pipelined stream to the serial
// reference at every batch edge, over several seeds and profile sets, and
// over lengths that cycle every buffer of the ring several times.
func TestMixedMatchesSerial(t *testing.T) {
	lengths := []int{0, 1, mixBatch - 1, mixBatch, mixBatch + 1, 3*mixBatch + 5, 7*mixBatch + 3}
	for name, ps := range mixedTestSets() {
		for _, seed := range []int64{0, 1, 7, -3} {
			for _, n := range lengths {
				got, want := MustMixed(ps, seed), newSerialMixed(ps, seed)
				for i := 0; i < n; i++ {
					if g, w := got.Next(), want.Next(); g != w {
						t.Fatalf("%s seed %d n %d: access %d = %+v, want %+v", name, seed, n, i, g, w)
					}
				}
			}
		}
	}
}

// TestMixedMatchesSerialAcrossRestarts pauses the consumer at batch edges
// until the producer has filled every free buffer and cleared running, so
// each later batch comes from a producer that refill started again. The
// stream must still equal the serial one.
func TestMixedMatchesSerialAcrossRestarts(t *testing.T) {
	for name, ps := range mixedTestSets() {
		got, want := MustMixed(ps, 11), newSerialMixed(ps, 11)
		idle := func() bool { return !got.src.running.Load() }
		for i := 0; i < 6*mixBatch+7; i++ {
			// Pause at batch edges and just inside them, so the producer
			// is restarted with the consumer at different points.
			if j := i % mixBatch; j == 0 || j == mixBatch-1 {
				waitFor(t, name+": producer idle", idle)
			}
			if g, w := got.Next(), want.Next(); g != w {
				t.Fatalf("%s: access %d = %+v, want %+v", name, i, g, w)
			}
		}
	}
}

// waitFor polls cond until it holds, and fails the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestMixedRejectsFootprintOverflow(t *testing.T) {
	p, _ := ProfileByName("web-search")
	at := func(foot int64) Profile { q := p; q.FootprintBytes = foot; return q }
	for name, ps := range map[string][]Profile{
		"one at 2^62":        {at(1 << 62)},
		"two summing 2^62":   {at(1 << 61), at(1 << 61)},
		"wrapping past 2^63": {at(1<<62 - 1<<21), at(1<<62 - 1<<21), at(1<<62 - 1<<21)},
	} {
		_, err := NewMixed(ps, 1)
		if err == nil || !strings.Contains(err.Error(), "2^62") {
			t.Errorf("%s: err = %v, want the 2^62 bound", name, err)
		}
	}
}

// TestDroppedMixedLeavesNoGoroutine drops a Mixed at several points of
// the stream, with a producer running or not: a producer fills the free
// buffers and exits, so the goroutine count settles.
func TestDroppedMixedLeavesNoGoroutine(t *testing.T) {
	for _, n := range []int{0, 1, mixBatch, mixBatch + 10, 5 * mixBatch} {
		before := runtime.NumGoroutine()
		func() {
			m := MustMixed(CloudSuite(), 5)
			for i := 0; i < n; i++ {
				m.Next()
			}
		}()
		waitFor(t, fmt.Sprintf("drop after %d accesses: goroutines back to %d", n, before),
			func() bool { return runtime.NumGoroutine() <= before })
	}
}
