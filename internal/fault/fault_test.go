package fault

import (
	"strings"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

func TestParseValidSpec(t *testing.T) {
	spec, err := Parse("seed=7; storm:ch1/rk2:at=90m,rate=2000,dur=60s; kill:ch3/rk1:at=3h")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 {
		t.Fatalf("seed = %d, want 7", spec.Seed)
	}
	if len(spec.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2", len(spec.Clauses))
	}
	st := spec.Clauses[0]
	if st.Kind != Storm || st.Rank != (dram.RankID{Channel: 1, Rank: 2}) ||
		st.Rate != 2000 || st.At != 90*sim.Minute || st.Dur != 60*sim.Second || st.Count != 1 {
		t.Fatalf("storm clause = %+v", st)
	}
	k := spec.Clauses[1]
	if k.Kind != Kill || k.Rank != (dram.RankID{Channel: 3, Rank: 1}) || k.At != 3*sim.Hour {
		t.Fatalf("kill clause = %+v", k)
	}
}

func TestParseDefaults(t *testing.T) {
	spec := MustParse("ce:ch0/rk0; storm:ch0/rk1; wake:ch0/rk2; stuck:ch0/rk3; ue:ch1/rk0:n=3")
	if spec.Seed != 1 {
		t.Fatalf("default seed = %d, want 1", spec.Seed)
	}
	c := spec.Clauses
	if c[0].Rate != DefaultCERate || c[1].Rate != DefaultStormRate {
		t.Fatalf("default rates = %v, %v", c[0].Rate, c[1].Rate)
	}
	if c[2].Kind != Wake || c[2].Extra != DefaultWakeExtra {
		t.Fatalf("wake clause = %+v", c[2])
	}
	if c[3].Kind != Wake || c[3].Extra != StuckWakeExtra {
		t.Fatalf("stuck clause = %+v", c[3])
	}
	if c[4].Kind != UE || c[4].Count != 3 {
		t.Fatalf("ue clause = %+v", c[4])
	}
}

func TestParseEmptyAndWhitespace(t *testing.T) {
	for _, s := range []string{"", " ; ; ", ";"} {
		spec, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if len(spec.Clauses) != 0 || spec.Seed != 1 {
			t.Fatalf("Parse(%q) = %+v", s, spec)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"seed=abc",
		"meteor:ch0/rk0",
		"ce",
		"ce:rank3",
		"ce:ch0/rk0:rate=-1",
		"ce:ch0/rk0:rate=0",
		"ce:ch0/rk0:at=yesterday",
		"ce:ch0/rk0:n=0",
		"ce:ch0/rk0:bogus=1",
		"ce:ch0/rk0:rate",
		"wake:ch0/rk0:extra=-5us",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

// TestParseRejectsTrailingRankBytes: a rank target ends at its rank
// digits; anything after them is a typo to refuse, not to drop.
func TestParseRejectsTrailingRankBytes(t *testing.T) {
	for _, s := range []string{
		"storm:ch0/rk0zz",
		"storm:ch0/rk0\xff",
		"kill:ch1/rk2x:at=1h",
		"ce:ch0/rk0/rk1",
		"ce:ch0x/rk0",
		"ue:x1/ch0/rk0zz",
		"ce:ch0",
		"ce:ch0/",
	} {
		if spec, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", s, spec)
		}
	}
	for s, want := range map[string]dram.RankID{
		"kill:ch1/rk2:at=1h":  {Channel: 1, Rank: 2},
		"storm: ch3/rk10 ":    {Channel: 3, Rank: 10},
		"ue:x1/ch0/rk7":       {Channel: 0, Rank: 7},
		"ce:ch 2/rk 1:rate=5": {Channel: 2, Rank: 1},
	} {
		spec, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if got := spec.Clauses[0].Rank; got != want {
			t.Errorf("Parse(%q) rank = %+v, want %+v", s, got, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on a bad spec")
		}
	}()
	MustParse("nope:ch0/rk0")
}

func TestNewInjectorValidatesGeometry(t *testing.T) {
	dev := dram.MustDevice(dram.Default1TB(), dram.DefaultPowerModel(), dram.DefaultTiming())
	g := dev.Geometry()
	bad := []string{
		"ce:ch99/rk0",
		"kill:ch0/rk99",
		"ue:ch-1/rk0",
	}
	for _, s := range bad {
		if _, err := NewInjector(MustParse(s), dev, sim.NewEngine()); err == nil {
			t.Errorf("NewInjector accepted %q for %v", s, g)
		}
	}
	if _, err := NewInjector(MustParse("ce:ch0/rk0"), dev, sim.NewEngine()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// runSpec executes a spec to the horizon on a fresh device and reports the
// injector stats plus every hook event.
func runSpec(t *testing.T, s string, horizon sim.Time) (Stats, []dram.FaultEvent, *dram.Device) {
	t.Helper()
	dev := dram.MustDevice(dram.Default1TB(), dram.DefaultPowerModel(), dram.DefaultTiming())
	var events []dram.FaultEvent
	dev.OnFault(func(ev dram.FaultEvent) { events = append(events, ev) })
	eng := sim.NewEngine()
	inj, err := NewInjector(MustParse(s), dev, eng)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start(horizon)
	eng.RunUntil(horizon)
	return inj.Stats(), events, dev
}

func TestDeterministicReplay(t *testing.T) {
	const spec = "seed=42;ce:ch0/rk0:rate=1000;storm:ch1/rk1:at=100ms,rate=5000,dur=200ms;ue:ch2/rk2:at=50ms"
	a, evA, _ := runSpec(t, spec, sim.Second)
	b, evB, _ := runSpec(t, spec, sim.Second)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if len(evA) != len(evB) {
		t.Fatalf("event streams diverged: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, evA[i], evB[i])
		}
	}
	c, _, _ := runSpec(t, strings.Replace(spec, "seed=42", "seed=43", 1), sim.Second)
	if a == c {
		t.Fatal("different seeds produced identical stats")
	}
}

func TestPoissonRateApproximation(t *testing.T) {
	// 1000 events/s over 2s of virtual time: expect ~2000 arrivals; a 25%
	// band is ~11 sigma for a Poisson(2000), so flakes mean a real bug.
	st, _, _ := runSpec(t, "seed=9;ce:ch0/rk0:rate=1000", 2*sim.Second)
	if st.CorrectableEvents < 1500 || st.CorrectableEvents > 2500 {
		t.Fatalf("ce events = %d, want ~2000", st.CorrectableEvents)
	}
	if st.CorrectableErrors != st.CorrectableEvents {
		t.Fatalf("errors %d != events %d with n=1", st.CorrectableErrors, st.CorrectableEvents)
	}
}

func TestClauseWindowRespected(t *testing.T) {
	_, events, _ := runSpec(t, "seed=3;ce:ch0/rk0:at=100ms,rate=10000,dur=100ms", sim.Second)
	if len(events) == 0 {
		t.Fatal("no events delivered in the active window")
	}
	for _, ev := range events {
		if ev.At < 100*sim.Millisecond || ev.At >= 200*sim.Millisecond {
			t.Fatalf("event at %v outside [100ms,200ms)", ev.At)
		}
	}
}

func TestPerEventErrorCount(t *testing.T) {
	st, _, _ := runSpec(t, "seed=5;ce:ch0/rk0:rate=500,n=4", sim.Second)
	if st.CorrectableErrors != 4*st.CorrectableEvents {
		t.Fatalf("errors %d != 4 * events %d", st.CorrectableErrors, st.CorrectableEvents)
	}
}

func TestKillAndUEOneShot(t *testing.T) {
	st, events, dev := runSpec(t, "seed=1;kill:ch1/rk1:at=10ms;ue:ch0/rk0:at=20ms", sim.Second)
	if st.RankKills != 1 || st.UncorrectableEvents != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !dev.Failed(dram.RankID{Channel: 1, Rank: 1}) {
		t.Fatal("killed rank not failed")
	}
	var kills, ues int
	for _, ev := range events {
		switch ev.Kind {
		case dram.FaultRankFailure:
			kills++
			if ev.At != 10*sim.Millisecond {
				t.Fatalf("kill at %v, want 10ms", ev.At)
			}
		case dram.FaultUncorrectable:
			ues++
			if ev.At != 20*sim.Millisecond {
				t.Fatalf("ue at %v, want 20ms", ev.At)
			}
		}
	}
	if kills != 1 || ues != 1 {
		t.Fatalf("kills=%d ues=%d, want 1 each", kills, ues)
	}
}

func TestWakeArmedAndClearedAtWindowEnd(t *testing.T) {
	dev := dram.MustDevice(dram.Default1TB(), dram.DefaultPowerModel(), dram.DefaultTiming())
	eng := sim.NewEngine()
	inj, err := NewInjector(MustParse("wake:ch0/rk0:at=10ms,dur=20ms,extra=80us"), dev, eng)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start(sim.Second)
	id := dram.RankID{Channel: 0, Rank: 0}

	eng.RunUntil(15 * sim.Millisecond)
	if dev.WakeFault(id) != 80*sim.Microsecond {
		t.Fatalf("wake fault mid-window = %v, want 80us", dev.WakeFault(id))
	}
	if inj.Stats().WakeFaultsArmed != 1 {
		t.Fatalf("armed = %d, want 1", inj.Stats().WakeFaultsArmed)
	}
	eng.RunUntil(sim.Second)
	if dev.WakeFault(id) != 0 {
		t.Fatal("wake fault not cleared at window end")
	}
}

func TestWakeWithoutDurPersistsToHorizon(t *testing.T) {
	dev := dram.MustDevice(dram.Default1TB(), dram.DefaultPowerModel(), dram.DefaultTiming())
	eng := sim.NewEngine()
	inj, err := NewInjector(MustParse("stuck:ch2/rk3"), dev, eng)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start(sim.Second)
	eng.RunUntil(sim.Second)
	if dev.WakeFault(dram.RankID{Channel: 2, Rank: 3}) != StuckWakeExtra {
		t.Fatal("open-ended stuck fault was cleared before the horizon")
	}
}

func TestClauseStreamsIndependent(t *testing.T) {
	// Adding a second clause must not perturb the first clause's arrivals.
	_, solo, _ := runSpec(t, "seed=11;ce:ch0/rk0:rate=200", sim.Second)
	_, both, _ := runSpec(t, "seed=11;ce:ch0/rk0:rate=200;ue:ch3/rk3:at=500ms", sim.Second)
	var ceSolo, ceBoth []dram.FaultEvent
	for _, ev := range solo {
		if ev.Kind == dram.FaultCorrectable {
			ceSolo = append(ceSolo, ev)
		}
	}
	for _, ev := range both {
		if ev.Kind == dram.FaultCorrectable {
			ceBoth = append(ceBoth, ev)
		}
	}
	if len(ceSolo) != len(ceBoth) {
		t.Fatalf("ce arrivals changed: %d vs %d", len(ceSolo), len(ceBoth))
	}
	for i := range ceSolo {
		if ceSolo[i] != ceBoth[i] {
			t.Fatalf("ce event %d changed: %+v vs %+v", i, ceSolo[i], ceBoth[i])
		}
	}
}
