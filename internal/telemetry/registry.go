package telemetry

import (
	"fmt"

	"dtl/internal/metrics"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; model packages may embed one by value and register it later
// with Registry.RegisterCounter.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (which must not be negative for a well-formed counter; the
// registry does not enforce this).
func (c *Counter) Add(delta int64) { c.n += delta }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n }

// Gauge is a point-in-time float64 metric. A gauge is either set explicitly
// with Set or backed by a callback (GaugeFunc) evaluated at read time.
type Gauge struct {
	v  float64
	fn func() float64
}

// Set stores the gauge value (ignored for callback-backed gauges).
func (g *Gauge) Set(v float64) { g.v = v }

// Value reports the current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// Timer accumulates duration observations (in nanoseconds) into a
// metrics.Histogram plus count/sum/max scalars, so both distribution shape
// and headline aggregates are available without retaining raw samples.
type Timer struct {
	hist *metrics.Histogram
	n    int64
	sum  float64
	max  float64
}

// DefaultTimerBoundsNs spans 100 ns to 1 s in decades, a useful default for
// simulated latencies.
func DefaultTimerBoundsNs() []float64 {
	return []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
}

// Observe records one duration in nanoseconds.
func (t *Timer) Observe(ns float64) {
	t.hist.Observe(ns)
	t.n++
	t.sum += ns
	if ns > t.max {
		t.max = ns
	}
}

// Count reports the number of observations.
func (t *Timer) Count() int64 { return t.n }

// Mean reports the mean observation, or 0 with no observations.
func (t *Timer) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Max reports the largest observation.
func (t *Timer) Max() float64 { return t.max }

// Histogram exposes the underlying bucket counts.
func (t *Timer) Histogram() *metrics.Histogram { return t.hist }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindTimer
)

type entry struct {
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	timer   *Timer
}

// Registry is a hierarchical-named metric registry ("memctrl.ch0.busy_ns",
// "core.migq.depth", ...). Registering the same name twice returns the same
// metric; registering a name as two different kinds panics (a model bug).
//
// StreamTo turns the registry into a set of aligned time series written as
// CSV rows. The registry is single-threaded, like the simulator.
type Registry struct {
	names   []string // registration order
	metrics map[string]entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]entry{}}
}

func (r *Registry) add(name string, e entry) {
	if prev, ok := r.metrics[name]; ok {
		if prev.kind != e.kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as two kinds", name))
		}
		return
	}
	r.metrics[name] = e
	r.names = append(r.names, name)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if e, ok := r.metrics[name]; ok && e.kind == kindCounter {
		return e.counter
	}
	c := &Counter{}
	r.add(name, entry{kind: kindCounter, counter: c})
	return c
}

// RegisterCounter registers an externally-owned counter (for model packages
// that embed a Counter by value and attach it to a registry after the fact).
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.add(name, entry{kind: kindCounter, counter: c})
}

// Gauge returns the named settable gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if e, ok := r.metrics[name]; ok && e.kind == kindGauge {
		return e.gauge
	}
	g := &Gauge{}
	r.add(name, entry{kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge evaluated from fn at read time, so a model
// can expose derived state (sums, ratios) without updating a gauge on every
// event.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.add(name, entry{kind: kindGauge, gauge: &Gauge{fn: fn}})
}

// Timer returns the named timer, creating it with the given histogram bounds
// (nil selects DefaultTimerBoundsNs) on first use.
func (r *Registry) Timer(name string, boundsNs []float64) *Timer {
	if e, ok := r.metrics[name]; ok && e.kind == kindTimer {
		return e.timer
	}
	if boundsNs == nil {
		boundsNs = DefaultTimerBoundsNs()
	}
	t := &Timer{hist: metrics.NewHistogram(boundsNs)}
	r.add(name, entry{kind: kindTimer, timer: t})
	return t
}

// Value reports the current scalar value of a metric by name: counters as
// their count, gauges as their value, timers as their mean. The second
// return is false for unknown names.
func (r *Registry) Value(name string) (float64, bool) {
	e, ok := r.metrics[name]
	if !ok {
		return 0, false
	}
	switch e.kind {
	case kindCounter:
		return float64(e.counter.Value()), true
	case kindGauge:
		return e.gauge.Value(), true
	default:
		return e.timer.Mean(), true
	}
}

// columns expands metric names into sample column names: one column per
// counter/gauge, two (count, mean_ns) per timer.
func (r *Registry) columns() []string {
	cols := make([]string, 0, len(r.names))
	for _, n := range r.names {
		switch r.metrics[n].kind {
		case kindTimer:
			cols = append(cols, n+".count", n+".mean_ns")
		default:
			cols = append(cols, n)
		}
	}
	return cols
}

// Snapshot returns the current value of every metric keyed by name (as
// Value reports it), for tests and ad-hoc dumps.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.names))
	for _, n := range r.names {
		v, _ := r.Value(n)
		out[n] = v
	}
	return out
}
