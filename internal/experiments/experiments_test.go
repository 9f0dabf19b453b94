package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// quickOpts runs every experiment at reduced scale with a fixed seed.
func quickOpts() Options { return Options{Quick: true, Seed: 1} }

// srShared is one serial Fig14-then-Fig15 run at quickOpts through a replay
// memo, as RunAll runs them: their four self-refresh replays, the slowest
// runs in the package, happen once per test binary. TestFig14Shape,
// TestFig15Shape and TestSelfRefreshReplaysShared all read it.
type srShared struct {
	fig14, fig15 Result
	out          []byte  // both reports
	memo         *srMemo // the four replays
}

var sharedSelfRefresh = sync.OnceValue(func() srShared {
	var out bytes.Buffer
	o := quickOpts()
	o.Out = &out
	o.srRuns = &srMemo{runs: map[srKey]*srRun{}}
	f14 := Fig14(o)
	f15 := Fig15(o)
	return srShared{fig14: f14, fig15: f15, out: out.Bytes(), memo: o.srRuns}
})

func TestRegistryCompleteAndUnique(t *testing.T) {
	runners := All()
	if len(runners) != 23 {
		t.Fatalf("registered experiments = %d, want 23", len(runners))
	}
	seen := map[string]bool{}
	for _, r := range runners {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil || r.Name == "" {
			t.Fatalf("incomplete runner %q", r.ID)
		}
	}
	if _, ok := ByID("fig12"); !ok {
		t.Fatal("ByID(fig12) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestExperimentsWriteReports(t *testing.T) {
	// Cheap experiments render non-empty reports to the writer.
	for _, id := range []string{"fig1", "fig6", "fig11", "table2", "table5", "table6"} {
		r, _ := ByID(id)
		var b strings.Builder
		opts := quickOpts()
		opts.Out = &b
		res := r.Run(opts)
		if res.ID == "" || len(res.Metrics) == 0 {
			t.Errorf("%s: empty result", id)
		}
		if !strings.Contains(b.String(), "paper:") {
			t.Errorf("%s: report missing paper claim", id)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	res := Fig1(quickOpts())
	checkMetricsGolden(t, res)
	mean := res.Metrics["mean_mem_utilization"]
	if mean <= 0 || mean >= 0.5 {
		t.Errorf("mean utilization %.3f, want in (0, 0.5) per the paper", mean)
	}
	if res.Metrics["peak_mem_utilization"] > 1 {
		t.Error("peak utilization above capacity")
	}
}

func TestFig2Shape(t *testing.T) {
	res := Fig2(quickOpts())
	checkMetricsGolden(t, res)
	s2 := res.Metrics["slowdown_2ranks"]
	if s2 <= 0 || s2 > 0.05 {
		t.Errorf("2-rank slowdown %.4f, want small positive (paper: 0.007)", s2)
	}
	// Fewer ranks must not be dramatically faster.
	for _, k := range []string{"slowdown_4ranks", "slowdown_6ranks"} {
		if res.Metrics[k] < -0.01 {
			t.Errorf("%s = %.4f, want >= -0.01", k, res.Metrics[k])
		}
		if res.Metrics[k] > s2+0.01 {
			t.Errorf("%s = %.4f exceeds 2-rank slowdown %.4f", k, res.Metrics[k], s2)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	res := Fig5(quickOpts())
	checkMetricsGolden(t, res)
	local := res.Metrics["loss_local"]
	cxl := res.Metrics["loss_cxl"]
	if local <= 0 || local > 0.06 {
		t.Errorf("local loss %.4f, want small positive (paper: 0.017)", local)
	}
	if cxl <= 0 || cxl > 0.06 {
		t.Errorf("cxl loss %.4f, want small positive (paper: 0.014)", cxl)
	}
	// The fixed link latency dilutes the relative penalty.
	if cxl >= local {
		t.Errorf("cxl loss %.4f should be below local loss %.4f", cxl, local)
	}
}

func TestFig6Shape(t *testing.T) {
	res := Fig6(quickOpts())
	checkMetricsGolden(t, res)
	if res.Metrics["channel_interleaved"] != 1 || res.Metrics["rank_bits_msb"] != 1 {
		t.Fatalf("address layout properties violated: %v", res.Metrics)
	}
}

func TestFig9Shape(t *testing.T) {
	res := Fig9(quickOpts())
	checkMetricsGolden(t, res)
	share := res.Metrics["mix8_ge4mb_share"]
	if share < 0.7 || share > 1.0 {
		t.Errorf("mix-8 >=4MB share %.3f, want > 0.7 (paper: 0.893)", share)
	}
}

func TestFig10Shape(t *testing.T) {
	res := Fig10(quickOpts())
	checkMetricsGolden(t, res)
	c2 := res.Metrics["cold_2mb_mean"]
	c4 := res.Metrics["cold_4mb_mean"]
	if c2 <= c4 {
		t.Errorf("2MB cold %.3f should exceed 4MB cold %.3f", c2, c4)
	}
	if c2 < 0.2 || c2 > 0.95 {
		t.Errorf("2MB cold share %.3f implausible (paper: 0.615)", c2)
	}
}

func TestFig11Shape(t *testing.T) {
	res := Fig11(quickOpts())
	checkMetricsGolden(t, res)
	if res.Metrics["bg_norm_8ranks"] != 1 {
		t.Error("8-rank point should be the unit baseline")
	}
	prev := res.Metrics["bg_norm_8ranks"]
	for _, k := range []string{"bg_norm_6ranks", "bg_norm_4ranks", "bg_norm_2ranks"} {
		if res.Metrics[k] >= prev {
			t.Errorf("%s = %.3f not decreasing", k, res.Metrics[k])
		}
		prev = res.Metrics[k]
	}
	if r := res.Metrics["active_linearity_residual"]; r != 0 {
		t.Errorf("active power nonlinearity %v", r)
	}
}

func TestFig12Shape(t *testing.T) {
	res := Fig12(quickOpts())
	checkMetricsGolden(t, res)
	saving := res.Metrics["energy_saving"]
	if saving < 0.1 || saving > 0.9 {
		t.Errorf("energy saving %.3f outside plausible band (paper: 0.316)", saving)
	}
	perf := res.Metrics["perf_overhead"]
	if perf < 0 || perf > 0.05 {
		t.Errorf("perf overhead %.4f, want small positive (paper: 0.016)", perf)
	}
	if res.Metrics["mean_active_ranks"] >= 8 {
		t.Error("power-down never reduced active ranks")
	}
}

func TestFig13Shape(t *testing.T) {
	res := Fig13(quickOpts())
	checkMetricsGolden(t, res)
	bg := res.Metrics["background_saving"]
	total := res.Metrics["total_saving"]
	if bg <= 0 || total <= 0 {
		t.Fatalf("savings not positive: bg %.3f total %.3f", bg, total)
	}
	// Active power is unchanged, so total saving must be below background
	// saving (paper: 35.3% vs 32.7%).
	if total >= bg {
		t.Errorf("total saving %.3f should be below background saving %.3f", total, bg)
	}
}

func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("self-refresh replay is slow")
	}
	res := sharedSelfRefresh().fig14
	checkMetricsGolden(t, res)
	low := res.Metrics["saving_26gib-5grp"]
	mid := res.Metrics["saving_32gib-5grp"]
	high := res.Metrics["saving_34gib-5grp"]
	eight := res.Metrics["saving_50gib-8grp"]
	if low <= 0 {
		t.Fatalf("lowest-allocation saving %.4f, want positive (paper: 0.203)", low)
	}
	// The paper's degradation with allocation pressure.
	if !(low > mid && mid > high) {
		t.Errorf("savings not degrading with allocation: %.4f, %.4f, %.4f", low, mid, high)
	}
	// The 8-rank configuration recovers savings (paper: 14.9%).
	if eight <= high {
		t.Errorf("8-rank saving %.4f should exceed the saturated 6-rank point %.4f", eight, high)
	}
}

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("self-refresh replay is slow")
	}
	res := sharedSelfRefresh().fig15
	checkMetricsGolden(t, res)
	// Combined savings exceed power-down alone where self-refresh works.
	if res.Metrics["total_26gib-5grp"] <= res.Metrics["pdonly_26gib-5grp"] {
		t.Errorf("combined %.4f not above power-down-only %.4f",
			res.Metrics["total_26gib-5grp"], res.Metrics["pdonly_26gib-5grp"])
	}
	// The 8-rank case has no power-down headroom but positive SR savings.
	if res.Metrics["pdonly_50gib-8grp"] != 0 {
		t.Errorf("8-rank power-down-only saving %.4f, want 0", res.Metrics["pdonly_50gib-8grp"])
	}
	if res.Metrics["total_50gib-8grp"] <= 0 {
		t.Errorf("8-rank combined saving %.4f, want positive", res.Metrics["total_50gib-8grp"])
	}
}

func TestTable2Shape(t *testing.T) {
	res := Table2(quickOpts())
	checkMetricsGolden(t, res)
	if res.Metrics["standby"] != 1.0 || res.Metrics["self-refresh"] != 0.2 || res.Metrics["mpsm"] != 0.068 {
		t.Fatalf("table 2 values: %v", res.Metrics)
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache replay is slow")
	}
	res := Table4(quickOpts())
	checkMetricsGolden(t, res)
	// Measured MAPKI within 2x of every target, and ordering preserved for
	// the extremes.
	targets := map[string]float64{
		"mapki_web-search": 0.7, "mapki_graph-analytics": 6.5,
		"mapki_data-serving": 4.2, "mapki_django-workload": 0.8,
	}
	for k, want := range targets {
		got := res.Metrics[k]
		if got < want*0.5 || got > want*2 {
			t.Errorf("%s = %.2f, want within 2x of %.1f", k, got, want)
		}
	}
	if res.Metrics["mapki_graph-analytics"] <= res.Metrics["mapki_web-search"] {
		t.Error("MAPKI ordering violated between extremes")
	}
}

func TestTable5Shape(t *testing.T) {
	res := Table5(quickOpts())
	checkMetricsGolden(t, res)
	if res.Metrics["sram_4tb_mb"] < 1 || res.Metrics["sram_4tb_mb"] > 20 {
		t.Errorf("4TB SRAM %.2f MB, want single-digit MB (paper: 5.3)", res.Metrics["sram_4tb_mb"])
	}
	if res.Metrics["dram_4tb_mb"] < 5 || res.Metrics["dram_4tb_mb"] > 100 {
		t.Errorf("4TB DRAM %.2f MB, want tens of MB (paper: 22.6)", res.Metrics["dram_4tb_mb"])
	}
	if res.Metrics["capacity_fraction"] > 0.0001 {
		t.Errorf("metadata fraction %.6f too large (paper: 0.000005)", res.Metrics["capacity_fraction"])
	}
}

func TestTable6Shape(t *testing.T) {
	res := Table6(quickOpts())
	checkMetricsGolden(t, res)
	if res.Metrics["power_4tb_mw"] <= res.Metrics["power_384gb_mw"] {
		t.Error("4TB controller should cost more power")
	}
	if res.Metrics["power_384gb_mw"] < 10 || res.Metrics["power_384gb_mw"] > 100 {
		t.Errorf("384GB power %.1f mW, want tens of mW (paper: 25.7)", res.Metrics["power_384gb_mw"])
	}
	if res.Metrics["area_4tb_mm2"] > 5 {
		t.Errorf("4TB area %.2f mm2 too large (paper: 1.1)", res.Metrics["area_4tb_mm2"])
	}
}

func TestAMATShape(t *testing.T) {
	if testing.Short() {
		t.Skip("AMAT replay is slow")
	}
	res := AMAT(quickOpts())
	checkMetricsGolden(t, res)
	tr := res.Metrics["translation_ns"]
	if tr <= 0 || tr > 21 {
		t.Errorf("translation %.2f ns, want single-digit ns (<10%% of CXL latency; paper: 4.2)", tr)
	}
	amat := res.Metrics["amat_ns"]
	if amat < 210 || amat > 231 {
		t.Errorf("AMAT %.1f ns, want 210 + small overhead (paper: 214.2)", amat)
	}
	if res.Metrics["l1_miss_ratio"] <= 0 || res.Metrics["l1_miss_ratio"] >= 1 {
		t.Error("L1 miss ratio out of range")
	}
}

// TestCSVExport pins every -csv series of a quick seed-1 run byte for byte
// against testdata/csv (go test ./internal/experiments -update rewrites
// them). Fig14 reads its replays from the shared memo, so the pin costs no
// replay of its own.
func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	opts := quickOpts()
	opts.CSVDir = dir
	Fig1(opts)
	Fig9(opts)
	Fig12(opts)
	Rack(opts)
	names := []string{"fig1_timeline.csv", "fig9_strides.csv", "fig12_power_timeline.csv",
		"rack_power_timeline.csv"}
	if !testing.Short() {
		f14 := opts
		f14.srRuns = sharedSelfRefresh().memo
		Fig14(f14)
		names = append(names, "fig14_savings.csv")
	}
	golden := filepath.Join("testdata", "csv")
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(golden, name)
		if *update {
			if err := os.MkdirAll(golden, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with go test ./internal/experiments -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from %s:\ngot:\n%s\nwant:\n%s", name, path, got, want)
		}
	}
}

func TestCSVDisabledByDefault(t *testing.T) {
	if f := quickOpts().csvFile("anything"); f != nil {
		f.Close()
		t.Fatal("csvFile returned a file without CSVDir")
	}
}

func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation replays are slow")
	}
	seg := AblationSegmentSize(quickOpts())
	checkMetricsGolden(t, seg)
	if !(seg.Metrics["cold_1mb"] >= seg.Metrics["cold_2mb"] &&
		seg.Metrics["cold_2mb"] >= seg.Metrics["cold_4mb"] &&
		seg.Metrics["cold_4mb"] >= seg.Metrics["cold_8mb"]) {
		t.Errorf("cold share not monotone in segment size: %v", seg.Metrics)
	}
	if seg.Metrics["meta_bytes_1mb"] <= seg.Metrics["meta_bytes_8mb"] {
		t.Error("metadata cost should shrink with segment size")
	}

	smc := AblationSMC(quickOpts())
	checkMetricsGolden(t, smc)
	if smc.Metrics["translation_ns_16x256"] <= smc.Metrics["translation_ns_256x4096"] {
		t.Errorf("bigger SMC should translate faster: %v", smc.Metrics)
	}

	rg := AblationRankGroup(quickOpts())
	checkMetricsGolden(t, rg)
	if rg.Metrics["bg_perrank_6free"] > rg.Metrics["bg_group_6free"] {
		t.Error("per-rank power-down cannot cost more background power than rank-group")
	}

	// No other test runs the threshold sweep, so its pin costs one quick
	// run here.
	checkMetricsGolden(t, AblationProfilingThreshold(quickOpts()))
}
