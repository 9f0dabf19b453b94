package telemetry

import (
	"math"
	"strings"
	"testing"
)

// summaryFromSpec builds a TraceSummary by hand: rank → state → microseconds.
func summaryFromSpec(resid map[int]map[string]float64, migsUs []float64) *TraceSummary {
	s := newTraceSummary()
	for rank, states := range resid {
		for st, us := range states {
			s.addResidency(rank, st, us)
		}
	}
	s.MigrationsUs = append(s.MigrationsUs, migsUs...)
	return s
}

func TestDiffIdenticalSummariesIsZero(t *testing.T) {
	spec := map[int]map[string]float64{
		0: {"standby": 300, "mpsm": 700},
		1: {"standby": 1000},
	}
	migs := []float64{10, 20, 30, 40}
	d := DiffSummaries(summaryFromSpec(spec, migs), summaryFromSpec(spec, migs))

	for _, sh := range d.Aggregate {
		if sh.Delta() != 0 {
			t.Fatalf("aggregate %s delta = %v, want 0", sh.State, sh.Delta())
		}
	}
	for _, rd := range d.Ranks {
		for _, sh := range rd.Shares {
			if sh.Delta() != 0 {
				t.Fatalf("rank %d %s delta = %v", rd.Rank, sh.State, sh.Delta())
			}
		}
	}
	if d.EnergyDelta() != 0 {
		t.Fatalf("energy delta = %v", d.EnergyDelta())
	}
	for _, p := range d.Percentiles {
		if p.Shift() != 0 {
			t.Fatalf("%s shift = %v", p.Name, p.Shift())
		}
	}
	tight := DiffTolerance{Share: 1e-9, LatFrac: 1e-9, EnergyFrac: 1e-9}
	if bad := d.Check(tight); len(bad) != 0 {
		t.Fatalf("identical summaries violate tightest tolerance: %v", bad)
	}
}

func TestDiffDetectsShareDrift(t *testing.T) {
	a := summaryFromSpec(map[int]map[string]float64{
		0: {"standby": 300, "mpsm": 700},
	}, nil)
	// Candidate spends 10 more points in standby.
	b := summaryFromSpec(map[int]map[string]float64{
		0: {"standby": 400, "mpsm": 600},
	}, nil)
	d := DiffSummaries(a, b)

	var standby ShareDelta
	for _, sh := range d.Aggregate {
		if sh.State == "standby" {
			standby = sh
		}
	}
	if math.Abs(standby.Delta()-0.1) > 1e-12 {
		t.Fatalf("standby drift = %v, want +0.1", standby.Delta())
	}
	if bad := d.Check(DiffTolerance{Share: 0.05}); len(bad) == 0 {
		t.Fatal("0.1 drift must violate a 0.05 band")
	} else if !strings.Contains(strings.Join(bad, "\n"), "standby") {
		t.Fatalf("violation does not name the state: %v", bad)
	}
	if bad := d.Check(DiffTolerance{Share: 0.15}); len(bad) != 0 {
		t.Fatalf("0.1 drift within a 0.15 band, got %v", bad)
	}
	// Zero tolerance disables the check entirely.
	if bad := d.Check(DiffTolerance{}); len(bad) != 0 {
		t.Fatalf("zero tolerance should disable checks, got %v", bad)
	}
}

func TestDiffDetectsLatencyShift(t *testing.T) {
	migsA := []float64{100, 100, 100, 100}
	migsB := []float64{150, 150, 150, 150} // +50% everywhere
	spec := map[int]map[string]float64{0: {"standby": 1000}}
	d := DiffSummaries(summaryFromSpec(spec, migsA), summaryFromSpec(spec, migsB))

	if len(d.Percentiles) != 3 {
		t.Fatalf("percentiles = %v", d.Percentiles)
	}
	for _, p := range d.Percentiles {
		if math.Abs(p.Shift()-0.5) > 1e-12 {
			t.Fatalf("%s shift = %v, want 0.5", p.Name, p.Shift())
		}
	}
	if bad := d.Check(DiffTolerance{LatFrac: 0.25}); len(bad) == 0 {
		t.Fatal("+50% latency must violate a 25% band")
	}
	if bad := d.Check(DiffTolerance{LatFrac: 0.60}); len(bad) != 0 {
		t.Fatalf("+50%% within a 60%% band, got %v", bad)
	}
}

func TestDiffEnergyProxy(t *testing.T) {
	// All-standby baseline vs all-mpsm candidate: proxy ratio is the Table 2
	// weight (0.068).
	a := summaryFromSpec(map[int]map[string]float64{0: {"standby": 1000}}, nil)
	b := summaryFromSpec(map[int]map[string]float64{0: {"mpsm": 1000}}, nil)
	if got := a.EnergyProxy(); got != 1000 {
		t.Fatalf("standby proxy = %v, want 1000", got)
	}
	if got := b.EnergyProxy(); got != 68 {
		t.Fatalf("mpsm proxy = %v, want 68", got)
	}
	d := DiffSummaries(a, b)
	if math.Abs(d.EnergyDelta()-(-0.932)) > 1e-12 {
		t.Fatalf("energy delta = %v, want -0.932", d.EnergyDelta())
	}
	if bad := d.Check(DiffTolerance{EnergyFrac: 0.5}); len(bad) == 0 {
		t.Fatal("93% energy change must violate a 50% band")
	}

	// Unknown states weigh 1.0 — they cannot hide energy.
	u := summaryFromSpec(map[int]map[string]float64{0: {"hyper-sleep": 500}}, nil)
	if got := u.EnergyProxy(); got != 500 {
		t.Fatalf("unknown-state proxy = %v, want 500 (weight 1.0)", got)
	}
}

func TestDiffRankSetMismatchAlwaysFlagged(t *testing.T) {
	a := summaryFromSpec(map[int]map[string]float64{
		0: {"standby": 1000},
		1: {"standby": 1000},
	}, nil)
	b := summaryFromSpec(map[int]map[string]float64{
		0: {"standby": 1000},
	}, nil)
	d := DiffSummaries(a, b)
	if len(d.RanksOnlyA) != 1 || d.RanksOnlyA[0] != 1 {
		t.Fatalf("ranks only in A = %v", d.RanksOnlyA)
	}
	// Rank-set mismatch is a violation even with every tolerance disabled.
	if bad := d.Check(DiffTolerance{}); len(bad) == 0 {
		t.Fatal("rank-set mismatch must always be flagged")
	}
}

func TestDiffPerRankWorstCase(t *testing.T) {
	// Aggregate shares identical; rank-level shares swapped — the per-rank
	// check must catch what the aggregate hides.
	a := summaryFromSpec(map[int]map[string]float64{
		0: {"standby": 800, "mpsm": 200},
		1: {"standby": 200, "mpsm": 800},
	}, nil)
	b := summaryFromSpec(map[int]map[string]float64{
		0: {"standby": 200, "mpsm": 800},
		1: {"standby": 800, "mpsm": 200},
	}, nil)
	d := DiffSummaries(a, b)
	for _, sh := range d.Aggregate {
		if math.Abs(sh.Delta()) > 1e-12 {
			t.Fatalf("aggregate %s delta = %v, want 0", sh.State, sh.Delta())
		}
	}
	rd, sh, ok := d.WorstRankShare("standby")
	if !ok || math.Abs(math.Abs(sh.Delta())-0.6) > 1e-12 {
		t.Fatalf("worst standby drift = %+v on %+v", sh, rd)
	}
	if bad := d.Check(DiffTolerance{Share: 0.3}); len(bad) == 0 {
		t.Fatal("per-rank swap must violate the share band despite zero aggregate drift")
	}
}

func TestPercentileShiftFromZero(t *testing.T) {
	p := PercentileDelta{Name: "P99", A: 0, B: 40}
	if p.Shift() != 1 {
		t.Fatalf("shift from zero = %v, want 1", p.Shift())
	}
	if z := (PercentileDelta{A: 0, B: 0}).Shift(); z != 0 {
		t.Fatalf("zero/zero shift = %v", z)
	}
}

// TestResidencyFoldsIgnoreMapOrder: every residency sum runs in one fixed
// order. Summed in Go map order, a rank holding {0.1, 0.2, 0.3} us came to
// 0.6 on some calls and 0.6000000000000001 on others, and so did the
// energy proxy of states that all weigh 1.0.
func TestResidencyFoldsIgnoreMapOrder(t *testing.T) {
	s := newTraceSummary()
	for rank := 0; rank < 2; rank++ {
		s.addResidency(rank, "standby", 0.1)
		s.addResidency(rank, "off", 0.2)
		s.addResidency(rank, "retired", 0.3)
	}
	one := s.Fold(0)
	all := s.Fold(0, 1)
	energy := s.EnergyProxy()
	for i := 0; i < 2000; i++ {
		if got := s.Fold(0); got.Total != one.Total || got.Share("standby") != one.Share("standby") {
			t.Fatalf("call %d: rank total %v share %v, first call %v %v",
				i, got.Total, got.Share("standby"), one.Total, one.Share("standby"))
		}
		if got := s.Fold(0, 1); got.Total != all.Total || got.Us["off"] != all.Us["off"] {
			t.Fatalf("call %d: device total %v, first call %v", i, got.Total, all.Total)
		}
		if got := s.EnergyProxy(); got != energy {
			t.Fatalf("call %d: energy proxy %v, first call %v", i, got, energy)
		}
	}
	// States by name: off, retired, standby.
	off, retired, standby := 0.2, 0.3, 0.1
	if want := (off + retired) + standby; one.Total != want {
		t.Fatalf("rank total %v, want %v", one.Total, want)
	}
}
