package experiments

import (
	"fmt"

	"dtl/internal/metrics"
)

// defaultFaultSpec is the chaos scenario the faults experiment runs when the
// caller did not supply one: an ECC storm on a populated rank ninety minutes
// in (2000 correctable errors/s for one minute — far past the health
// monitor's leaky bucket), then a whole-rank failure at the three-hour mark.
// The kill targets ch0/rk0 — under power-down consolidation the first rank
// of a channel always holds live data, so the failure exercises the full
// degraded-serve-then-drain path rather than retiring an empty rank.
func defaultFaultSpec(seed int64) string {
	return fmt.Sprintf("seed=%d;storm:ch1/rk2:at=90m,rate=2000,dur=60s;kill:ch0/rk0:at=3h", seed)
}

// Faults runs the 6-hour power-down schedule under injected faults and
// reports how the reliability loop absorbed them: storms detected, ranks
// auto-retired, migrations re-routed away from dying destinations, VMs shed
// when capacity shrank — and, the headline, zero data loss (every surviving
// VM remains readable) while the energy savings persist.
func Faults(o Options) Result {
	res := newResult("Faults", "Reliability loop under injected ECC storms and rank failure",
		"the conclusion's reliability sketch: degraded ranks retire transparently, no data loss")
	w := o.out()
	res.header(w)

	if o.FaultSpec == "" {
		o.FaultSpec = defaultFaultSpec(o.Seed)
	}
	fmt.Fprintf(w, "fault spec: %s\n\n", o.FaultSpec)

	run := runPowerDownSchedule(o)

	fmt.Fprintln(w, "injected:")
	tab := metrics.NewTable("process", "count")
	tab.AddRowf("correctable events\t%d", run.faultStats.CorrectableEvents)
	tab.AddRowf("correctable errors\t%d", run.faultStats.CorrectableErrors)
	tab.AddRowf("uncorrectable errors\t%d", run.faultStats.UncorrectableEvents)
	tab.AddRowf("wake faults armed\t%d", run.faultStats.WakeFaultsArmed)
	tab.AddRowf("rank kills\t%d", run.faultStats.RankKills)
	tab.Render(w)

	fmt.Fprintln(w, "\nreliability loop response:")
	tab = metrics.NewTable("outcome", "count")
	tab.AddRowf("fault events observed\t%.0f", run.health["fault_events"])
	tab.AddRowf("ECC storms detected\t%.0f", run.health["storms"])
	tab.AddRowf("ranks auto-retired\t%.0f", run.health["auto_retires"])
	tab.AddRowf("retirements deferred (capacity)\t%.0f", run.health["retires_deferred"])
	tab.AddRowf("retirement retries\t%.0f", run.health["retire_retries"])
	tab.AddRowf("retirements abandoned\t%.0f", run.health["retires_abandoned"])
	tab.AddRowf("ranks retired (total)\t%d", run.retiredRanks)
	tab.AddRowf("VMs shed (graceful degradation)\t%d", run.shedVMs)
	tab.AddRowf("migration verify failures\t%d", run.verifyFailures)
	tab.AddRowf("migration re-routes\t%d", run.reroutes)
	tab.AddRowf("migration verify give-ups\t%d", run.verifyGiveups)
	tab.AddRowf("degraded-rank health probes\t%d", run.degradedProbes)
	tab.AddRowf("read-probe failures (data loss)\t%d", run.probeFailures)
	tab.Render(w)

	saving := run.energySaving()
	fmt.Fprintf(w, "\nenergy saving %s despite the failures; %d intervals saw migration activity\n",
		pct(saving), run.migrationSpans)
	if run.probeFailures == 0 {
		fmt.Fprintln(w, "zero data loss: every surviving VM address remained readable")
	} else {
		fmt.Fprintf(w, "DATA LOSS: %d probe reads failed\n", run.probeFailures)
	}

	res.Metrics["storms_detected"] = run.health["storms"]
	res.Metrics["ranks_auto_retired"] = run.health["auto_retires"]
	res.Metrics["ranks_retired"] = float64(run.retiredRanks)
	res.Metrics["vms_shed"] = float64(run.shedVMs)
	res.Metrics["verify_reroutes"] = float64(run.reroutes)
	res.Metrics["probe_failures"] = float64(run.probeFailures)
	res.Metrics["degraded_probes"] = float64(run.degradedProbes)
	res.Metrics["probe_lat_ns"] = float64(run.accessLatNs)
	res.Metrics["bytes_migrated"] = float64(run.bytesMigrated)
	res.Metrics["energy_saving"] = saving
	res.footer(w)
	return res
}
