package telemetry

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"dtl/internal/sim"
)

// refSampler is the reference StreamSampler is checked against: it
// snapshots every metric into memory at each sample and renders the whole
// series with fmt at the end, aligning each row to the final header.
type refSampler struct {
	r     *Registry
	times []sim.Time
	rows  []map[string]float64 // column name -> value at times[i]
}

func (s *refSampler) Sample(now sim.Time) {
	row := map[string]float64{}
	for _, n := range s.r.names {
		e := s.r.metrics[n]
		switch e.kind {
		case kindCounter:
			row[n] = float64(e.counter.Value())
		case kindGauge:
			row[n] = e.gauge.Value()
		default:
			row[n+".count"] = float64(e.timer.Count())
			row[n+".mean_ns"] = e.timer.Mean()
		}
	}
	s.times = append(s.times, now)
	s.rows = append(s.rows, row)
}

func (s *refSampler) WriteCSV(w io.Writer) error {
	final := s.r.columns()
	if _, err := fmt.Fprintf(w, "time_ns,%s\n", strings.Join(final, ",")); err != nil {
		return err
	}
	for i, at := range s.times {
		cells := []string{fmt.Sprintf("%d", int64(at))}
		for _, c := range final {
			v, ok := s.rows[i][c]
			switch {
			case !ok || math.IsNaN(v):
				cells = append(cells, "")
			case v == math.Trunc(v) && math.Abs(v) < 1e15:
				cells = append(cells, fmt.Sprintf("%d", int64(v)))
			default:
				cells = append(cells, fmt.Sprintf("%g", v))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamMatchesWriteCSV pins format compatibility: a streamed run must
// produce byte-identical CSV to the in-memory reference renderer, for
// counters, gauges (a fraction, a NaN) and timers.
func TestStreamMatchesWriteCSV(t *testing.T) {
	build := func() (*Registry, *Counter, *Gauge, *Timer) {
		r := NewRegistry()
		r.GaugeFunc("nan", func() float64 { return math.NaN() })
		return r, r.Counter("hits"), r.Gauge("load"), r.Timer("lat", nil)
	}

	drive := func(sample func(sim.Time), c *Counter, g *Gauge, tm *Timer) {
		c.Inc()
		g.Set(0.25)
		tm.Observe(150)
		sample(10)
		c.Add(9)
		g.Set(3)
		tm.Observe(50)
		sample(20)
	}

	r1, c1, g1, t1 := build()
	ref := &refSampler{r: r1}
	drive(ref.Sample, c1, g1, t1)
	var want strings.Builder
	if err := ref.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	r2, c2, g2, t2 := build()
	var got strings.Builder
	s := r2.StreamTo(&got)
	drive(s.Sample, c2, g2, t2)
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("streamed CSV differs from the reference:\nstream: %q\nref:    %q",
			got.String(), want.String())
	}
	if s.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", s.Rows())
	}
}

// TestStreamHeaderFixedAtFirstSample: metrics registered after the first
// sample are excluded, keeping every row aligned with the header — and the
// late registration is rejected with an error at Finish rather than passing
// for a complete file.
func TestStreamHeaderFixedAtFirstSample(t *testing.T) {
	r := NewRegistry()
	r.Counter("early").Inc()
	var sb strings.Builder
	s := r.StreamTo(&sb)
	s.Sample(5)
	r.Gauge("late").Set(3) // must not corrupt subsequent rows
	s.Sample(10)
	err := s.Finish()
	if err == nil {
		t.Fatal("Finish accepted a metric registered after the header was fixed")
	}
	if !strings.Contains(err.Error(), `"late"`) {
		t.Fatalf("late-registration error does not name the metric: %v", err)
	}
	want := "time_ns,early\n5,1\n10,1\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

// TestStreamLateTimerRejected: a late timer (two columns) is rejected the
// same way, and rows written before Finish keep the original column count.
func TestStreamLateTimerRejected(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("b").Add(2)
	var sb strings.Builder
	s := r.StreamTo(&sb)
	s.Sample(1)
	r.Timer("late_timer", nil).Observe(50)
	s.Sample(2)
	s.Sample(3)
	if err := s.Finish(); err == nil {
		t.Fatal("Finish accepted a late timer registration")
	}
	for i, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if got := strings.Count(line, ","); got != 2 {
			t.Fatalf("line %d %q has %d commas, want 2", i, line, got)
		}
	}
}

// TestStreamFinishWithoutSamplesWritesHeader: a run shorter than one
// sampling period still yields a well-formed CSV.
func TestStreamFinishWithoutSamplesWritesHeader(t *testing.T) {
	r := NewRegistry()
	r.Counter("c")
	var sb strings.Builder
	s := r.StreamTo(&sb)
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "time_ns,c\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

type failWriter struct{ err error }

func (f *failWriter) Write(p []byte) (int, error) { return 0, f.err }

// TestStreamWriteErrorIsSticky: after a write failure, Sample stops touching
// the writer and Err reports the original cause.
func TestStreamWriteErrorIsSticky(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	boom := errors.New("disk full")
	s := r.StreamTo(&failWriter{err: boom})
	s.Sample(10)
	s.Sample(20)
	if !errors.Is(s.Err(), boom) {
		t.Fatalf("err = %v, want %v", s.Err(), boom)
	}
	if s.Rows() != 0 {
		t.Fatalf("rows = %d after failed writes", s.Rows())
	}
}

// TestStreamSteadyStateDoesNotAllocate: per-sample row rendering reuses the
// sampler's buffer; only the destination writer may allocate.
func TestStreamSteadyStateDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	tm := r.Timer("t", nil)
	c.Add(12345)
	g.Set(0.125)
	tm.Observe(100)
	sink := discardWriter{}
	s := r.StreamTo(sink)
	now := sim.Time(0)
	s.Sample(now) // warm up: header + first row sizes the buffer
	allocs := testing.AllocsPerRun(1000, func() {
		now += 10
		s.Sample(now)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sample allocates %.1f objects/op, want 0", allocs)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
