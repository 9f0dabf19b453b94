package telemetry

import (
	"strings"
	"testing"

	"dtl/internal/sim"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("a.count"); again != c {
		t.Fatal("Counter should return the same instance for the same name")
	}

	g := r.Gauge("a.gauge")
	g.Set(2.5)
	if v, ok := r.Value("a.gauge"); !ok || v != 2.5 {
		t.Fatalf("gauge value = %v,%v", v, ok)
	}
	r.GaugeFunc("a.fn", func() float64 { return 7 })
	if v, _ := r.Value("a.fn"); v != 7 {
		t.Fatalf("gauge func value = %v", v)
	}

	tm := r.Timer("a.lat", nil)
	tm.Observe(100)
	tm.Observe(300)
	if tm.Count() != 2 || tm.Mean() != 200 || tm.Max() != 300 {
		t.Fatalf("timer = count %d mean %v max %v", tm.Count(), tm.Mean(), tm.Max())
	}
	if tm.Histogram().Total() != 2 {
		t.Fatalf("histogram total = %d", tm.Histogram().Total())
	}
}

func TestRegisterCounterSharesState(t *testing.T) {
	r := NewRegistry()
	var owned Counter // embedded-by-value style, as memctrl uses
	r.RegisterCounter("ext", &owned)
	owned.Inc()
	owned.Inc()
	if v, ok := r.Value("ext"); !ok || v != 2 {
		t.Fatalf("registered counter reads %v,%v, want 2", v, ok)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

func TestValueUnknownName(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Value("nope"); ok {
		t.Fatal("unknown name should report ok=false")
	}
}

func TestSamplingDrivenByIntervalTimer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	eng := sim.NewEngine()
	var sb strings.Builder
	s := r.StreamTo(&sb)
	cancel := s.Start(eng, 10)

	c.Inc()
	eng.RunUntil(25) // samples at 10, 20
	c.Add(9)
	eng.RunUntil(40) // samples at 30, 40
	cancel()
	eng.RunUntil(100) // no more samples

	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := s.Rows(); got != 4 {
		t.Fatalf("samples = %d, want 4", got)
	}
	want := "time_ns,hits\n10,1\n20,1\n30,10\n40,10\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1.5)
	snap := r.Snapshot()
	if snap["c"] != 3 || snap["g"] != 1.5 {
		t.Fatalf("snapshot = %v", snap)
	}
}
