package dram

import (
	"math"
	"testing"

	"dtl/internal/sim"
)

func newTestDevice() *Device {
	return MustDevice(Default1TB(), DefaultPowerModel(), DefaultTiming())
}

func TestPowerStateString(t *testing.T) {
	if Standby.String() != "standby" || SelfRefresh.String() != "self-refresh" || MPSM.String() != "mpsm" {
		t.Fatal("unexpected state strings")
	}
	if !Standby.RetainsData() || !SelfRefresh.RetainsData() || MPSM.RetainsData() {
		t.Fatal("retention flags wrong")
	}
}

func TestTable2NormalizedPower(t *testing.T) {
	m := DefaultPowerModel()
	if m.Background(Standby) != 1.0 {
		t.Errorf("standby = %v, want 1.0", m.Background(Standby))
	}
	if m.Background(SelfRefresh) != 0.2 {
		t.Errorf("self-refresh = %v, want 0.2", m.Background(SelfRefresh))
	}
	if m.Background(MPSM) != 0.068 {
		t.Errorf("mpsm = %v, want 0.068", m.Background(MPSM))
	}
	// JEDEC-derived bracket from §2: MPSM is 3.4–6.8% of standby.
	ratio := m.Background(MPSM) / m.Background(Standby)
	if ratio < 0.034 || ratio > 0.068 {
		t.Errorf("MPSM/standby ratio %v outside paper bracket [0.034, 0.068]", ratio)
	}
}

func TestFormatPowerKeepsOneFractionalDigit(t *testing.T) {
	for p, want := range map[float64]string{1: "1.0", 0.2: "0.2", 0.068: "0.068", 1.25: "1.25", 0: "0.0", 12: "12.0"} {
		if got := FormatPower(p); got != want {
			t.Errorf("FormatPower(%v) = %q, want %q", p, got, want)
		}
	}
}

func TestActivePowerLinear(t *testing.T) {
	m := DefaultPowerModel()
	p1 := m.Active(1)
	p10 := m.Active(10)
	if math.Abs(p10-10*p1) > 1e-12 {
		t.Errorf("active power not linear: %v vs %v", p10, 10*p1)
	}
	if m.Active(0) != 0 {
		t.Errorf("active power at 0 BW should be 0")
	}
}

func TestDeviceInitialState(t *testing.T) {
	d := newTestDevice()
	for _, id := range []RankID{{0, 0}, {3, 7}, {1, 4}} {
		if got := d.State(id); got != Standby {
			t.Errorf("initial state of %v = %v, want standby", id, got)
		}
	}
	if got := d.BackgroundPowerNow(); got != 32.0 {
		t.Errorf("initial background power = %v, want 32 (all standby)", got)
	}
	by := d.CountByState()
	if by[Standby] != 32 || by[SelfRefresh] != 0 || by[MPSM] != 0 {
		t.Errorf("CountByState = %v", by)
	}
}

func TestSetStateTransitionPenalties(t *testing.T) {
	d := newTestDevice()
	tm := d.Timing()
	id := RankID{Channel: 1, Rank: 3}

	ready := d.SetState(id, SelfRefresh, 1000)
	if want := sim.Time(1000) + tm.SelfRefreshEnter; ready != want {
		t.Errorf("enter SR ready at %v, want %v", ready, want)
	}
	ready = d.SetState(id, Standby, 5000)
	if want := sim.Time(5000) + tm.SelfRefreshExit; ready != want {
		t.Errorf("exit SR ready at %v, want %v", ready, want)
	}
	ready = d.SetState(id, MPSM, 10000)
	if want := sim.Time(10000) + tm.MPSMEnter; ready != want {
		t.Errorf("enter MPSM ready at %v, want %v", ready, want)
	}
	ready = d.SetState(id, Standby, 20000)
	if want := sim.Time(20000) + tm.MPSMExit; ready != want {
		t.Errorf("exit MPSM ready at %v, want %v", ready, want)
	}
	if got := d.Transitions(id); got != 4 {
		t.Errorf("transitions = %d, want 4", got)
	}
}

func TestSetStateSameStateNoop(t *testing.T) {
	d := newTestDevice()
	id := RankID{Channel: 0, Rank: 0}
	ready := d.SetState(id, Standby, 100)
	if ready != 100 {
		t.Errorf("same-state ready = %v, want 100", ready)
	}
	if d.Transitions(id) != 0 {
		t.Error("same-state transition counted")
	}
}

func TestBackgroundEnergyAccounting(t *testing.T) {
	d := newTestDevice()
	tm := DefaultTiming()
	_ = tm
	id := RankID{Channel: 2, Rank: 5}

	// 1000 ns standby, then self-refresh until 11000, then account.
	d.SetState(id, SelfRefresh, 1000)
	d.AccountUpTo(11000)

	standby, sr, mpsm := d.BackgroundEnergy()
	// 31 ranks standby for 11000ns + 1 rank standby for 1000ns.
	wantStandby := 31*11000.0 + 1000.0
	wantSR := 0.2 * 10000.0
	if math.Abs(standby-wantStandby) > 1e-6 {
		t.Errorf("standby energy = %v, want %v", standby, wantStandby)
	}
	if math.Abs(sr-wantSR) > 1e-6 {
		t.Errorf("self-refresh energy = %v, want %v", sr, wantSR)
	}
	if mpsm != 0 {
		t.Errorf("mpsm energy = %v, want 0", mpsm)
	}
}

func TestBackgroundPowerDropsWithMPSM(t *testing.T) {
	d := newTestDevice()
	before := d.BackgroundPowerNow()
	// Power down rank group 7 (all 4 channels).
	for ch := 0; ch < 4; ch++ {
		d.SetState(RankID{Channel: ch, Rank: 7}, MPSM, 0)
	}
	after := d.BackgroundPowerNow()
	wantDrop := 4 * (1.0 - 0.068)
	if math.Abs((before-after)-wantDrop) > 1e-9 {
		t.Errorf("power drop = %v, want %v", before-after, wantDrop)
	}
}

func TestRanksIn(t *testing.T) {
	d := newTestDevice()
	d.SetState(RankID{Channel: 0, Rank: 2}, SelfRefresh, 0)
	d.SetState(RankID{Channel: 3, Rank: 2}, SelfRefresh, 0)
	ids := d.RanksIn(SelfRefresh)
	if len(ids) != 2 {
		t.Fatalf("RanksIn(SR) = %v", ids)
	}
	if ids[0] != (RankID{Channel: 0, Rank: 2}) || ids[1] != (RankID{Channel: 3, Rank: 2}) {
		t.Fatalf("RanksIn order = %v", ids)
	}
	if got := len(d.RanksIn(Standby)); got != 30 {
		t.Fatalf("standby ranks = %d, want 30", got)
	}
}

func TestRankOutOfRangePanics(t *testing.T) {
	d := newTestDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range rank")
		}
	}()
	d.State(RankID{Channel: 9, Rank: 0})
}

func TestEnergyLedgerAcrossManyTransitions(t *testing.T) {
	// Energy must integrate exactly across an arbitrary transition script.
	d := newTestDevice()
	script := []struct {
		at    sim.Time
		state PowerState
	}{
		{1000, SelfRefresh},
		{3000, Standby},
		{7000, MPSM},
		{15000, Standby},
		{20000, SelfRefresh},
	}
	for _, s := range script {
		d.SetState(RankID{Channel: 0, Rank: 0}, s.state, s.at)
	}
	d.AccountUpTo(30000)
	st, sr, mp := d.BackgroundEnergy()
	// Rank 0: standby [0,1000)+[3000,7000)+[15000,20000) = 10000ns;
	// SR [1000,3000)+[20000,30000) = 12000ns; MPSM [7000,15000) = 8000ns.
	// Plus 31 other ranks standby for 30000ns each.
	wantStandby := 31*30000.0 + 10000.0
	wantSR := 0.2 * 12000.0
	wantMPSM := 0.068 * 8000.0
	if math.Abs(st-wantStandby) > 1e-6 || math.Abs(sr-wantSR) > 1e-6 || math.Abs(mp-wantMPSM) > 1e-6 {
		t.Fatalf("energies = %v/%v/%v, want %v/%v/%v", st, sr, mp, wantStandby, wantSR, wantMPSM)
	}
}

func TestAccountUpToIdempotent(t *testing.T) {
	d := newTestDevice()
	d.SetState(RankID{Channel: 1, Rank: 1}, SelfRefresh, 100)
	d.AccountUpTo(1000)
	st1, sr1, mp1 := d.BackgroundEnergy()
	d.AccountUpTo(1000) // same instant: no double counting
	st2, sr2, mp2 := d.BackgroundEnergy()
	if st1 != st2 || sr1 != sr2 || mp1 != mp2 {
		t.Fatal("AccountUpTo double-counted energy")
	}
}

func TestReadyAtMonotonic(t *testing.T) {
	// Back-to-back transitions never let readiness go backwards.
	d := newTestDevice()
	id := RankID{Channel: 2, Rank: 2}
	var prev sim.Time
	states := []PowerState{SelfRefresh, Standby, MPSM, Standby, SelfRefresh, Standby}
	now := sim.Time(0)
	for _, s := range states {
		ready := d.SetState(id, s, now)
		if ready < prev {
			t.Fatalf("readiness went backwards: %v after %v", ready, prev)
		}
		prev = ready
		now += 50 // shorter than most penalties: transitions overlap
	}
}
