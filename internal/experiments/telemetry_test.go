package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtl/internal/metrics"
	"dtl/internal/telemetry"
	"dtl/internal/trace"
)

func summarizeTraceFile(t *testing.T, path string) *telemetry.TraceSummary {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening trace: %v", err)
	}
	defer f.Close()
	s, err := telemetry.SummarizeJSONL(f)
	if err != nil {
		t.Fatalf("parsing trace: %v", err)
	}
	return s
}

// TestFig12TraceSpansPartitionRun is the telemetry acceptance check: the
// trace streamed by the fig12 power-down schedule must contain one
// power timeline per global rank whose spans sum exactly to the run
// duration, plus migration spans with computable latency percentiles.
func TestFig12TraceSpansPartitionRun(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.TracePath = filepath.Join(dir, "t.jsonl")
	o.TraceFormat = telemetry.FormatJSONL
	o.MetricsPath = filepath.Join(dir, "m.csv")

	run := runPowerDownSchedule(o)
	s := summarizeTraceFile(t, o.TracePath)

	wantRanks := pdGeometry().TotalRanks()
	if len(s.Residency) != wantRanks {
		t.Fatalf("power timelines for %d ranks, want %d", len(s.Residency), wantRanks)
	}
	horizonUs := float64(run.horizon) / 1e3
	for rank := 0; rank < wantRanks; rank++ {
		got := s.Fold(rank).Total
		if diff := got - horizonUs; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("rank %d (%s): spans sum to %.3f us, want %.3f",
				rank, s.RankNames[rank], got, horizonUs)
		}
	}

	// The schedule powers ranks down, so MPSM residency must appear.
	var mpsmUs float64
	for _, m := range s.Residency {
		mpsmUs += m["mpsm"]
	}
	if mpsmUs <= 0 {
		t.Error("no MPSM residency in a power-down schedule trace")
	}

	if len(s.MigrationsUs) == 0 {
		t.Fatal("no migration spans in trace")
	}
	sum := metrics.Summarize(s.MigrationsUs)
	if !(sum.P50 > 0 && sum.P95 >= sum.P50 && sum.P99 >= sum.P95) {
		t.Errorf("migration latency percentiles not ordered: %+v", sum)
	}
	if s.MigrationReasons["powerdown-drain"] == 0 {
		t.Errorf("drain migrations missing a reason tag: %v", s.MigrationReasons)
	}

	data, err := os.ReadFile(o.MetricsPath)
	if err != nil {
		t.Fatalf("metrics CSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("metrics CSV has %d lines", len(lines))
	}
	for _, col := range []string{"time_ns", "core.powerdown.events", "memctrl.wakeups", "dev.ranks.mpsm"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("metrics header missing %q: %s", col, lines[0])
		}
	}
}

// TestFig9TraceReplay checks the fig9 -trace path: replaying the mix through
// a DTL yields a parseable trace with full-coverage power timelines.
func TestFig9TraceReplay(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.TracePath = filepath.Join(dir, "t.jsonl")
	o.TraceFormat = telemetry.FormatJSONL

	var profiles []trace.Profile
	for _, app := range fig9Apps[:3] {
		p, err := trace.ProfileByName(app)
		if err != nil {
			t.Fatal(err)
		}
		p.FootprintBytes = 64 << 20
		profiles = append(profiles, p)
	}
	fig9TraceReplay(o, profiles, 20_000)

	s := summarizeTraceFile(t, o.TracePath)
	if len(s.Residency) == 0 {
		t.Fatal("no power timelines in fig9 trace")
	}
	d0 := s.Fold(0).Total
	for rank := range s.Residency {
		if got := s.Fold(rank).Total; got != d0 {
			t.Errorf("rank %d duration %v != rank 0 duration %v", rank, got, d0)
		}
	}
}

func TestTelemetryDisabledIsNil(t *testing.T) {
	if rt := quickOpts().telemetryFor(nil, 1, 0); rt != nil {
		t.Fatal("telemetryFor without paths should return nil")
	}
	var rt *runTelemetry
	rt.tick(100) // no-ops on nil
	if err := rt.finish(100); err != nil {
		t.Fatalf("nil finish: %v", err)
	}
}

// fig9ChromeSHA256 is the SHA-256 of quick fig9's Chrome trace at seed 1.
const fig9ChromeSHA256 = "63f42d33497d91fc091ff34f6547203fb15b5a68492e3f3e3853602444cb3ceb"

// TestFig9ChromeTraceGolden pins quick fig9's Chrome trace byte for byte:
// the file converted from the run's stream equals the one the tracer's
// in-memory export wrote, which held every record of this run.
func TestFig9ChromeTraceGolden(t *testing.T) {
	o := quickOpts()
	o.TracePath = filepath.Join(t.TempDir(), "t.json")
	Fig9(o)
	data, err := os.ReadFile(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != fig9ChromeSHA256 {
		t.Fatalf("fig9 chrome trace sha256 = %s, want %s", got, fig9ChromeSHA256)
	}
}

// TestReplayMetricsGolden pins the -metrics CSV that quick fig2 (2-rank
// point) and quick fig5 (CXL channel-only replay) sample over the raw
// controller replay at seed 1: each row must reflect exactly the accesses
// arriving before its timestamp. Both sample only per-channel bus gauges and
// replay the same mix, so their files are equal.
func TestReplayMetricsGolden(t *testing.T) {
	const want = "c97a8fe18d63ce58429e9a57eddbd4906f4f24af7512fdf10986643a3ce335dd"
	for _, tc := range []struct {
		name string
		run  func(Options) Result
	}{{"fig2", Fig2}, {"fig5", Fig5}} {
		t.Run(tc.name, func(t *testing.T) {
			o := quickOpts()
			o.MetricsPath = filepath.Join(t.TempDir(), "m.csv")
			tc.run(o)
			data, err := os.ReadFile(o.MetricsPath)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
				t.Fatalf("%s -metrics sha256 = %s, want %s", tc.name, got, want)
			}
		})
	}
}
