package experiments

import (
	"errors"
	"strings"
	"testing"

	"dtl/internal/core"
	"dtl/internal/fault"
)

// TestFaultsChaosSmoke is the seeded chaos run of the reliability loop: one
// rank storms with correctable errors, another dies outright, and the run
// must end with the stormed/killed ranks retired and zero data loss (the
// end-of-run probe reads every live VM address). Quick-scale so CI can run
// it under -race.
func TestFaultsChaosSmoke(t *testing.T) {
	var b strings.Builder
	opts := quickOpts()
	opts.Out = &b
	res := Faults(opts)
	checkMetricsGolden(t, res)

	if res.Metrics["probe_failures"] != 0 {
		t.Fatalf("probe_failures = %v, want 0 (data loss)", res.Metrics["probe_failures"])
	}
	if res.Metrics["ranks_retired"] < 1 {
		t.Fatalf("ranks_retired = %v, want >= 1", res.Metrics["ranks_retired"])
	}
	if res.Metrics["storms_detected"] < 1 {
		t.Fatalf("storms_detected = %v, want >= 1", res.Metrics["storms_detected"])
	}
	if res.Metrics["ranks_auto_retired"] < 1 {
		t.Fatalf("ranks_auto_retired = %v, want >= 1", res.Metrics["ranks_auto_retired"])
	}
	if !strings.Contains(b.String(), "zero data loss") {
		t.Fatal("report missing the zero-data-loss line")
	}
}

// TestFaultsDeterministic: same seed, same injected fault counts and same
// reliability response.
func TestFaultsDeterministic(t *testing.T) {
	a := Faults(quickOpts())
	b := Faults(quickOpts())
	for _, k := range []string{"storms_detected", "ranks_retired", "vms_shed", "probe_failures"} {
		if a.Metrics[k] != b.Metrics[k] {
			t.Fatalf("%s diverged across identical runs: %v vs %v", k, a.Metrics[k], b.Metrics[k])
		}
	}
}

// TestFig12UnchangedWithoutFaultSpec: with no -faults spec the schedule
// runs without the fault machinery: no VM is shed, no degraded rank is
// probed, no read fails, no rank retires and the health monitor sees no
// fault event.
func TestFig12UnchangedWithoutFaultSpec(t *testing.T) {
	run := runPowerDownSchedule(quickOpts())
	if run.shedVMs != 0 || run.degradedProbes != 0 || run.probeFailures != 0 || run.retiredRanks != 0 {
		t.Fatalf("fault-free run: %d shed, %d degraded probes, %d probe failures, %d ranks retired",
			run.shedVMs, run.degradedProbes, run.probeFailures, run.retiredRanks)
	}
	if run.faultStats != (fault.Stats{}) || run.health["fault_events"] != 0 {
		t.Fatalf("fault-free run saw faults: injected %+v, %g fault events",
			run.faultStats, run.health["fault_events"])
	}
}

// TestDeviceShedsOnlyUnderFaults: the schedule loop sheds what capacity
// cannot hold, but the single device is sized for the schedule and only
// injected faults shrink it. With ballast filling most of the device, a
// fault-free run must fail loudly, while the same run with a fault spec
// (here one that injects nothing) sheds and completes.
func TestDeviceShedsOnlyUnderFaults(t *testing.T) {
	ballasted := func() *deviceTarget {
		d, err := core.New(core.DefaultConfig(pdGeometry()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.AllocateVM(1<<30, 0, pdGeometry().TotalBytes()*7/8, 0); err != nil {
			t.Fatal(err)
		}
		return &deviceTarget{d: d}
	}

	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, core.ErrOutOfCapacity) {
				t.Fatalf("fault-free run out of capacity: recovered %v, want a panic with ErrOutOfCapacity", err)
			}
		}()
		runSchedule(quickOpts(), ballasted())
	}()

	o := quickOpts()
	o.FaultSpec = "seed=1"
	if run := runSchedule(o, ballasted()); run.shedVMs == 0 {
		t.Fatal("a run with a fault spec shed nothing on a ballasted device")
	}
}
