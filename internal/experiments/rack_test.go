package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dtl/internal/core"
	"dtl/internal/rack"
	"dtl/internal/telemetry"
)

// rackOpts is the quick 4-expander pack configuration the rack tests share:
// pack is the leg that exercises every fabric mechanism (cross-expander
// accesses, consolidation copies, parking).
func rackOpts() Options {
	o := quickOpts()
	o.Rack = 4
	o.Fabric = "policy=pack"
	return o
}

// TestRackPackBeatsSpread is the experiment's headline claim, the same gate
// the rack-smoke CI job asserts: on the identical arrival curve, packing VMs
// onto few expanders (parking the rest) spends no more energy than spreading
// them, and the cross-expander traffic it pays for that is actually priced
// (nonzero fabric stall and copy bytes).
func TestRackPackBeatsSpread(t *testing.T) {
	res := Rack(rackOpts())
	// The rack entry pins rackOpts' pack leg, not the quick default's spread.
	checkMetricsGolden(t, res)
	pack, spread := res.Metrics["energy_proxy_pack"], res.Metrics["energy_proxy_spread"]
	if pack <= 0 || spread <= 0 {
		t.Fatalf("degenerate energy proxies: pack %g, spread %g", pack, spread)
	}
	if pack > spread {
		t.Fatalf("pack energy proxy %g exceeds spread %g", pack, spread)
	}
	if res.Metrics["cross_access_share"] == 0 {
		t.Error("pack leg saw no cross-expander accesses; the fabric price is not being exercised")
	}
	if res.Metrics["fabric_bytes"] == 0 || res.Metrics["rack_migrations"] == 0 {
		t.Errorf("no consolidation traffic: fabric_bytes %g, rack_migrations %g",
			res.Metrics["fabric_bytes"], res.Metrics["rack_migrations"])
	}
}

// TestRackLedgerConservation extends the ledger identities to the fabric
// causes: attributed foreground latency (the four access-path causes plus
// fabric-stall) must equal the experiment's own summed access latency
// exactly, and total ledger energy must equal residency energy plus
// migration energy over BOTH copy paths — intra-expander drains and
// inter-expander fabric copies — within 1e-9 relative.
func TestRackLedgerConservation(t *testing.T) {
	dir := t.TempDir()
	o := rackOpts()
	o.TracePath = filepath.Join(dir, "t.jsonl")
	o.TraceFormat = telemetry.FormatJSONL
	o.LedgerPath = filepath.Join(dir, "ledger.json")

	res := Rack(o)
	snap := parseLedgerFile(t, o.LedgerPath)
	m := causeTotals(snap)

	if m["fabric-stall"].LatNs == 0 {
		t.Error("no fabric-stall latency: packed VMs should pay the switch on every probe")
	}
	if m["fabric-copy"].Energy == 0 {
		t.Error("no fabric-copy energy: consolidation should move bytes over the link")
	}
	if m["fabric-stall"].Energy != 0 {
		t.Errorf("fabric-stall carries energy %g; the stall is time-only by design", m["fabric-stall"].Energy)
	}

	got := foregroundLatNs(m) + m["fabric-stall"].LatNs
	if want := int64(res.Metrics["foreground_lat_ns"]); got != want {
		t.Fatalf("attributed foreground+fabric latency %d ns != experiment latency %d ns", got, want)
	}

	s := summarizeTraceFile(t, o.TracePath)
	wantEnergy := 1000*s.EnergyProxy() +
		activePowerPerGBs*(res.Metrics["bytes_migrated"]+res.Metrics["fabric_bytes"])
	if !relClose(snap.TotalEnergy, wantEnergy, 1e-9) {
		t.Fatalf("ledger energy %g != residency+migration+fabric energy %g", snap.TotalEnergy, wantEnergy)
	}
}

// TestRackArtifactsDeterministic re-runs the identical rack configuration
// and demands byte-identical report, trace, and ledger artifacts — the
// repo-wide determinism invariant extended to the fabric composition. The
// Parallel knob must also be inert (the rack loop is serial by design).
func TestRackArtifactsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick rack runs")
	}
	run := func(parallel int) (report, trace, ledger []byte) {
		dir := t.TempDir()
		var buf bytes.Buffer
		o := rackOpts()
		o.Out = &buf
		o.Parallel = parallel
		o.TracePath = filepath.Join(dir, "t.json")
		o.LedgerPath = filepath.Join(dir, "ledger.json")
		Rack(o)
		tr, err := os.ReadFile(o.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		led, err := os.ReadFile(o.LedgerPath)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), tr, led
	}
	r1, t1, l1 := run(1)
	r2, t2, l2 := run(4)
	if !bytes.Equal(r1, r2) {
		t.Error("re-run produced a different report")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("re-run produced a different trace artifact")
	}
	if !bytes.Equal(l1, l2) {
		t.Error("re-run produced a different ledger artifact")
	}
}

// TestRackUnderFaults aims an expander-scoped kill at the pack policy's
// working set and requires the rack to absorb it with zero data loss: the
// grammar's xN/ scope must land the fault on expander 0 only, and every
// surviving VM must remain readable wherever the allocator put it. Its
// metrics are pinned as the rack-faults entry: the Faults entry covers only
// the single-device fault path.
func TestRackUnderFaults(t *testing.T) {
	o := rackOpts()
	o.FaultSpec = "seed=1;kill:x0/ch0/rk0:at=2h;storm:x1/ch1/rk2:at=90m,rate=2000,dur=60s"
	res := Rack(o)
	checkMetricsGoldenAs(t, "rack-faults", res)
	if res.Metrics["probe_failures"] != 0 {
		t.Fatalf("data loss: %g probe reads failed", res.Metrics["probe_failures"])
	}
	if res.Metrics["ranks_retired"] == 0 {
		t.Error("the killed rank never retired")
	}
	if pack, spread := res.Metrics["energy_proxy_pack"], res.Metrics["energy_proxy_spread"]; pack > spread {
		t.Errorf("pack energy proxy %g exceeds spread %g under faults", pack, spread)
	}
}

// TestRackShedCountedOnce runs the schedule over a rack whose expanders are
// each ballasted 7/8 full, so the allocator refuses arrivals. The policy
// A/B table must print each refused VM once: its shed column must equal
// the run's vms_shed count, which the allocator's own Stats.Shed repeats.
func TestRackShedCountedOnce(t *testing.T) {
	o := rackOpts()
	fcfg, err := rack.ParseFabric(o.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	tgt := newRackTarget(o, fcfg, o.Rack)
	for x, d := range tgt.ds {
		if _, err := d.AllocateVM(core.VMID(1<<30+x), 0, pdGeometry().TotalBytes()*7/8, 0); err != nil {
			t.Fatal(err)
		}
	}
	run := runRackSchedule(o, tgt)
	if run.shedVMs == 0 {
		t.Fatal("a ballasted rack shed nothing")
	}
	if run.alloc.Shed != int64(run.shedVMs) {
		t.Fatalf("allocator shed %d, schedule shed %d: both count the same refusals", run.alloc.Shed, run.shedVMs)
	}
	var buf bytes.Buffer
	writePolicyAB(&buf, run)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	row := strings.Fields(lines[len(lines)-1])
	if got, want := row[len(row)-1], strconv.Itoa(run.shedVMs); got != want {
		t.Fatalf("shed column prints %s, want vms_shed %s:\n%s", got, want, buf.String())
	}
}
