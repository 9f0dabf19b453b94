package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		1500:            "1.500us",
		2 * Millisecond: "2.000ms",
		3 * Second:      "3.000s",
		90 * Second:     "90.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30", e.Now())
	}
}

func TestSameTimeInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("insertion order violated: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.After(50, func(now Time) {
		fired = now
		e.After(25, func(now Time) { fired = now })
	})
	e.Run()
	if fired != 75 {
		t.Fatalf("nested After fired at %v, want 75", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.At(50, func(Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.After(-1, func(Time) {})
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var cancel func()
	cancel = e.Every(10, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			cancel()
		}
	})
	e.RunUntil(1000)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 at 10,20,30", ticks)
	}
	for i, want := range []Time{10, 20, 30} {
		if ticks[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Every(0, func(Time) {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func(Time) { fired++ })
	e.At(20, func(Time) { fired++ })
	e.At(30, func(Time) { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 || e.Now() != 30 {
		t.Fatalf("after Run: fired=%d now=%v", fired, e.Now())
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("now = %v, want 500", e.Now())
	}
}

func TestDrainFiresThroughDeadlineAndCounts(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 10, 20} {
		at := at
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(10)
	if want := []Time{5, 10, 10}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	if e.Now() != 10 || e.Pending() != 1 {
		t.Fatalf("now = %v, pending = %d; want 10, 1", e.Now(), e.Pending())
	}
	// Advancing past the last event still moves the clock to the deadline.
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 100 {
		t.Fatalf("RunUntil(100) fired %d events total, now %v; want 4, 100", len(fired), e.Now())
	}
}

func TestDrainOnEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	// A deadline in the past is a no-op, not a clock rewind.
	e.RunUntil(7)
	if e.Now() != 42 {
		t.Fatalf("now = %v, want 42", e.Now())
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt on empty queue reported ok")
	}
	e.At(30, func(Time) {})
	e.At(10, func(Time) {})
	if at, ok := e.NextEventAt(); !ok || at != 10 {
		t.Fatalf("NextEventAt = %v, %v; want 10, true", at, ok)
	}
	if e.Now() != 0 || e.Pending() != 2 {
		t.Fatal("NextEventAt must not fire or advance anything")
	}
}

func TestAdvance(t *testing.T) {
	e := NewEngine()
	e.Advance(100)
	if e.Now() != 100 {
		t.Fatalf("now = %v", e.Now())
	}
	e.At(500, func(Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when skipping events")
		}
	}()
	e.Advance(1000)
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEveryCancelBeforeFirstFiring(t *testing.T) {
	e := NewEngine()
	fired := 0
	cancel := e.Every(10, func(Time) { fired++ })
	cancel()
	e.RunUntil(1000)
	if fired != 0 {
		t.Fatalf("fired %d times after immediate cancel, want 0", fired)
	}
	if e.Now() != 1000 {
		t.Fatalf("clock at %v, want 1000", e.Now())
	}
}

func TestEveryCancelIsIdempotentAndIsolated(t *testing.T) {
	e := NewEngine()
	var a, b int
	cancelA := e.Every(10, func(Time) { a++ })
	e.Every(10, func(Time) { b++ })
	e.RunUntil(25) // both fire at 10 and 20
	cancelA()
	cancelA() // double-cancel must be harmless
	e.RunUntil(55)
	if a != 2 {
		t.Fatalf("cancelled timer fired %d times, want 2", a)
	}
	if b != 5 {
		t.Fatalf("surviving timer fired %d times, want 5 (10..50)", b)
	}
}

func TestEveryReschedulesAcrossRunUntilBoundaries(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Every(7, func(now Time) { ticks = append(ticks, now) })
	// Drive the clock in uneven chunks, as experiment loops do; the timer
	// must keep its exact 7 ns cadence regardless of the chunking.
	for _, deadline := range []Time{5, 13, 14, 30, 31, 50} {
		e.RunUntil(deadline)
	}
	want := []Time{7, 14, 21, 28, 35, 42, 49}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

// TestHeapOrderingRandom drives the 4-ary heap with interleaved random
// pushes and pops and checks full (time, insertion) ordering against a
// reference sort. This is the safety net for the inlined heap replacing
// container/heap.
func TestHeapOrderingRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var scheduled, fired []Time
		pending := 0
		for i := 0; i < 2000; i++ {
			if pending > 0 && rng.Intn(3) == 0 {
				if e.Step() {
					pending--
				}
				continue
			}
			// Never schedule in the past: offsets are relative to now.
			at := e.Now() + Time(rng.Int63n(1000))
			e.At(at, func(now Time) { fired = append(fired, now) })
			scheduled = append(scheduled, at)
			pending++
		}
		e.Run()
		sort.Slice(scheduled, func(i, j int) bool { return scheduled[i] < scheduled[j] })
		if len(fired) != len(scheduled) {
			t.Fatalf("seed %d: fired %d of %d events", seed, len(fired), len(scheduled))
		}
		for i := range fired {
			if fired[i] != scheduled[i] {
				t.Fatalf("seed %d: event %d fired at %v, want %v", seed, i, fired[i], scheduled[i])
			}
		}
	}
}

// TestEverySteadyStateDoesNotAllocate pins the allocation-free interval
// timer: after setup, each tick (pop + re-push of the same closure) must not
// allocate. Refresh timers and metrics samplers fire millions of times over
// a six-hour horizon, so an allocation here dominates profile noise.
func TestEverySteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Every(10, func(Time) { ticks++ })
	e.Step() // warm up: first firing reaches steady state
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Every tick allocates %.1f objects/op, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("timer never fired")
	}
}

// TestStepSteadyStateDoesNotAllocate pins the event core itself: a
// self-rescheduling event (the common steady-state shape) must go through
// push/pop without boxing.
func TestStepSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	var fire Event
	fire = func(now Time) { e.At(now+5, fire) }
	e.At(0, fire)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkEngineStep measures the steady-state event cycle: one pop, the
// callback, one push. The interesting numbers are ns/op and allocs/op
// (which must be 0).
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	var fire Event
	fire = func(now Time) { e.At(now+5, fire) }
	e.At(0, fire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepDeep measures Step with many pending timers (the
// fig14-style configuration: per-channel samplers plus profiling windows),
// exercising sift-down depth.
func BenchmarkEngineStepDeep(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		period := Time(7 + i)
		e.Every(period, func(Time) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func TestEveryCancelFromOtherEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	cancel := e.Every(10, func(Time) { fired++ })
	// A scheduled event (same instant as the third firing, inserted first)
	// cancels the timer; the already-queued firing at 30 must not run.
	e.At(30, func(Time) { cancel() })
	e.RunUntil(100)
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (cancel lands before the t=30 tick)", fired)
	}
}
