package experiments

import (
	"strings"
	"testing"
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

// TestFig12UnchangedWithoutFaultSpec: with no -faults spec, the schedule
// experiment must not tick the fault machinery (shedding, probes, scrub),
// keeping the baseline results and the access-path benchmark comparable to
// the seed.
func TestFig12UnchangedWithoutFaultSpec(t *testing.T) {
	res := Fig12(quickOpts())
	for _, k := range []string{"vms_shed", "probe_failures"} {
		if v, ok := res.Metrics[k]; ok && v != 0 {
			t.Fatalf("%s = %v on a fault-free run", k, v)
		}
	}
	if res.Metrics["energy_saving_pct"] == 0 && res.Metrics["energy_saving"] == 0 {
		t.Fatal("fig12 lost its energy-saving result")
	}
}
