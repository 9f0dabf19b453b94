package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/telemetry"
	"dtl/internal/trace"
)

// activePowerPerGBs is the slope the migration-energy charges use (see
// DTL.migEnergyPerSeg).
var activePowerPerGBs = dram.DefaultPowerModel().ActivePowerPerGBs

func parseLedgerFile(t *testing.T, path string) *telemetry.LedgerSnapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening ledger: %v", err)
	}
	defer f.Close()
	snap, err := telemetry.ParseLedgerSnapshot(f)
	if err != nil {
		t.Fatalf("parsing ledger: %v", err)
	}
	return snap
}

func causeTotals(snap *telemetry.LedgerSnapshot) map[string]telemetry.CauseTotal {
	m := map[string]telemetry.CauseTotal{}
	for _, c := range snap.Causes {
		m[c.Cause] = c
	}
	return m
}

// foregroundLatNs sums the four access-path causes; the conservation tests
// compare it against the experiment's own summed access latency.
func foregroundLatNs(m map[string]telemetry.CauseTotal) int64 {
	return m["baseline"].LatNs + m["smc-miss-walk"].LatNs +
		m["self-refresh-wake"].LatNs + m["degraded-read"].LatNs
}

func relClose(got, want, tol float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	if scale == 0 {
		return diff == 0
	}
	return diff <= tol*scale
}

// TestFig9LedgerConservation drives the fig9 trace replay with a ledger and
// checks both conservation identities: attributed foreground latency equals
// the replay's summed access latency exactly, and the ledger's total energy
// equals residency energy (1000 x the trace's EnergyProxy, which is in
// weight-microseconds) plus migration energy, within 1e-9 relative.
func TestFig9LedgerConservation(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.TracePath = filepath.Join(dir, "t.jsonl")
	o.TraceFormat = telemetry.FormatJSONL
	o.LedgerPath = filepath.Join(dir, "ledger.json")

	var profiles []trace.Profile
	for _, app := range fig9Apps[:3] {
		p, err := trace.ProfileByName(app)
		if err != nil {
			t.Fatal(err)
		}
		p.FootprintBytes = 64 << 20
		profiles = append(profiles, p)
	}
	lat, migBytes := fig9TraceReplay(o, profiles, 20_000)

	snap := parseLedgerFile(t, o.LedgerPath)
	m := causeTotals(snap)
	if got := foregroundLatNs(m); got != lat {
		t.Fatalf("attributed foreground latency %d ns != replay latency %d ns", got, lat)
	}
	if m["smc-miss-walk"].LatNs == 0 {
		t.Error("replay attributed no smc-miss-walk latency")
	}

	s := summarizeTraceFile(t, o.TracePath)
	wantEnergy := 1000*s.EnergyProxy() + activePowerPerGBs*float64(migBytes)
	if !relClose(snap.TotalEnergy, wantEnergy, 1e-9) {
		t.Fatalf("ledger energy %g != residency+migration energy %g", snap.TotalEnergy, wantEnergy)
	}
}

// TestFaultsLedgerConservation runs the faults chaos scenario and checks the
// same identities, plus that the reliability causes the CI smoke greps for
// (degraded-read, fault-retry) actually carry cost.
func TestFaultsLedgerConservation(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.Out = nil
	o.TracePath = filepath.Join(dir, "t.jsonl")
	o.TraceFormat = telemetry.FormatJSONL
	o.LedgerPath = filepath.Join(dir, "ledger.json")

	res := Faults(o)
	snap := parseLedgerFile(t, o.LedgerPath)
	m := causeTotals(snap)

	// The degraded-rank and end-of-run probes are the only foreground
	// accesses the schedule issues, so the ledger's foreground latency must
	// equal the probe_lat_ns metric exactly.
	if got, want := foregroundLatNs(m), int64(res.Metrics["probe_lat_ns"]); got != want {
		t.Fatalf("attributed foreground latency %d ns != probe latency %d ns", got, want)
	}
	if m["degraded-read"].LatNs == 0 {
		t.Error("no degraded-read latency: the rank kill should be probed before retirement")
	}
	if m["fault-retry"].LatNs == 0 {
		t.Error("no fault-retry latency: retirement drains and backoffs should be charged")
	}
	if m["demotion-wait"].LatNs == 0 {
		t.Error("no demotion-wait latency: the power-down schedule always drains")
	}

	s := summarizeTraceFile(t, o.TracePath)
	wantEnergy := 1000*s.EnergyProxy() + activePowerPerGBs*res.Metrics["bytes_migrated"]
	if !relClose(snap.TotalEnergy, wantEnergy, 1e-9) {
		t.Fatalf("ledger energy %g != residency+migration energy %g", snap.TotalEnergy, wantEnergy)
	}
}

// TestLedgerArtifactDeterministicAcrossParallel runs the same faults config
// serially and with sweep parallelism and demands byte-identical ledger
// artifacts — the property `dtlstat diff -attr 1e-9` of a repeated run
// relies on. Run under -race this also hunts data races on the charge path.
func TestLedgerArtifactDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick schedule runs")
	}
	run := func(parallel int) []byte {
		dir := t.TempDir()
		o := quickOpts()
		o.Parallel = parallel
		o.LedgerPath = filepath.Join(dir, "ledger.json")
		Faults(o)
		data, err := os.ReadFile(o.LedgerPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := run(1)
	par := run(4)
	if !bytes.Equal(serial, par) {
		t.Fatal("serial and parallel runs produced different ledger artifacts")
	}
}

// TestLedgerEnergyConservationAcrossRunners checks the energy identity on
// quick fig12 and on every ablation whose paper point writes a ledger
// (abl-smc, abl-threshold, abl-tsp; the sweeps' other points run without
// telemetry): the ledger's total energy equals residency energy (1000 x the
// trace's EnergyProxy) plus migration energy, one 2 MiB segment copy at
// activePowerPerGBs per migration span in the trace, within 1e-9 relative.
func TestLedgerEnergyConservationAcrossRunners(t *testing.T) {
	const segBytes = 2 * dram.MiB // every runner below uses 2 MiB segments
	for _, tc := range []struct {
		id       string
		migrates bool // the run must trace at least one migration
	}{
		{"fig12", true},
		{"abl-smc", false},
		{"abl-threshold", true},
		{"abl-tsp", true},
	} {
		t.Run(tc.id, func(t *testing.T) {
			r, ok := ByID(tc.id)
			if !ok {
				t.Fatalf("no runner %q", tc.id)
			}
			dir := t.TempDir()
			o := quickOpts()
			o.TracePath = filepath.Join(dir, "t.jsonl")
			o.TraceFormat = telemetry.FormatJSONL
			o.LedgerPath = filepath.Join(dir, "ledger.json")
			r.Run(o)

			snap := parseLedgerFile(t, o.LedgerPath)
			s := summarizeTraceFile(t, o.TracePath)
			migs := len(s.MigrationsUs)
			if tc.migrates && migs == 0 {
				t.Fatal("no migration spans in the trace")
			}
			wantEnergy := 1000*s.EnergyProxy() + activePowerPerGBs*float64(int64(migs)*segBytes)
			if !relClose(snap.TotalEnergy, wantEnergy, 1e-9) {
				t.Fatalf("ledger energy %g != residency+migration energy %g (%d migrations)",
					snap.TotalEnergy, wantEnergy, migs)
			}
		})
	}
}

// TestTraceResidencyMatchesBackgroundEnergy ties the trace to the figures:
// the JSONL power spans' residency × Table 2 weight (EnergyProxy, in
// weight-microseconds) must equal the technique background energy the
// schedule reports from dram.Device.BackgroundEnergy (units × ns).
func TestTraceResidencyMatchesBackgroundEnergy(t *testing.T) {
	for _, tc := range []struct {
		id     string
		faults bool
	}{
		{"fig12", false},
		{"faults", true},
	} {
		t.Run(tc.id, func(t *testing.T) {
			o := quickOpts()
			o.TracePath = filepath.Join(t.TempDir(), "t.jsonl")
			o.TraceFormat = telemetry.FormatJSONL
			if tc.faults {
				o.FaultSpec = defaultFaultSpec(o.Seed)
			}
			run := runPowerDownSchedule(o)
			proxy := 1000 * summarizeTraceFile(t, o.TracePath).EnergyProxy()
			if !relClose(proxy, run.techBGEnergy, 1e-9) {
				t.Fatalf("trace residency energy %.17g != schedule background energy %.17g",
					proxy, run.techBGEnergy)
			}
		})
	}
}
