package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dtl/internal/telemetry"
)

// TestBarePathOrFlagIsUsageError: every command is spelled out, so a bare
// trace path or a read flag without 'read' is a usage error (exit 2), not
// an implicit 'read'.
func TestBarePathOrFlagIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"trace.json"},
		{"-check", "band.json", "trace.json"},
		{"-json", "trace.json"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
	if code := run([]string{"help"}); code != 0 {
		t.Errorf("run(help) = %d, want 0", code)
	}
}

// TestConvertMatchesGoldensAndReadRefusesExports: `convert` writes the
// pinned chrome and csv exports of the fixture stream, `read` refuses them,
// and a missing -to or a jsonl target is a usage error.
func TestConvertMatchesGoldensAndReadRefusesExports(t *testing.T) {
	const testdata = "../../internal/telemetry/testdata/"
	in := testdata + "fixture.stream.jsonl"
	dir := t.TempDir()
	for _, tc := range []struct{ to, golden string }{
		{"chrome", "fixture.chrome.json"},
		{"csv", "fixture.stream.csv"},
	} {
		out := filepath.Join(dir, tc.golden)
		if code := run([]string{"convert", "-to", tc.to, in, out}); code != 0 {
			t.Fatalf("convert -to %s exited %d", tc.to, code)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(testdata + tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("convert -to %s differs from %s", tc.to, tc.golden)
		}
		if code := run([]string{"read", out}); code != 1 {
			t.Fatalf("read of the %s export exited %d, want 1", tc.to, code)
		}
	}
	for _, args := range [][]string{
		{"convert", in, filepath.Join(dir, "x")},
		{"convert", "-to", "jsonl", in, filepath.Join(dir, "x")},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestReadDiffGolden pins the exact stdout, stderr and exit status of
// `dtlstat read` on the two telemetry fixture streams and of `dtlstat diff`
// on the pair, in text and -json, ungated, gated to fail, and misused.
func TestReadDiffGolden(t *testing.T) {
	const (
		fixture = "../../internal/telemetry/testdata/fixture.stream.jsonl"
		kinds   = "../../internal/telemetry/testdata/kinds.stream.jsonl"
	)
	const drift = "dtlstat: FAIL: aggregate self-refresh share drift -0.075 exceeds ±0.000\n" +
		"dtlstat: FAIL: aggregate standby share drift +0.075 exceeds ±0.000\n" +
		"dtlstat: FAIL: rank ch1/rk0 self-refresh share drift -0.500 exceeds ±0.000\n" +
		"dtlstat: FAIL: rank ch1/rk0 standby share drift +0.500 exceeds ±0.000\n" +
		"dtlstat: FAIL: energy proxy drift +8.69% exceeds ±0.00%\n"
	runGoldens(t, nil, []goldenCase{
		{"read_fixture.golden.txt", 0, "", []string{"read", fixture}},
		{"read_fixture.golden.json", 0, "", []string{"read", "-json", fixture}},
		{"read_kinds.golden.txt", 0, "", []string{"read", kinds}},
		{"read_kinds.golden.json", 0, "", []string{"read", "-json", kinds}},
		{"", 1, "dtlstat: open testdata/missing.jsonl: no such file or directory\n", []string{"read", "testdata/missing.jsonl"}},
		{"", 2, "", []string{"read", fixture, kinds}},
		{"diff.golden.txt", 0, "", []string{"diff", fixture, kinds}},
		{"diff.golden.json", 0, "", []string{"diff", "-json", fixture, kinds}},
		{"diff_fail.golden.txt", 1, drift, []string{"diff", "-share", "1e-9", "-energy", "1e-9", fixture, kinds}},
		{"diff_fail.golden.json", 1, "", []string{"diff", "-json", "-share", "1e-9", "-energy", "1e-9", fixture, kinds}},
		{"diff_pass.golden.txt", 0, "", []string{"diff", "-share", "1", "-lat", "100", "-energy", "100", "-attr", "100", fixture, fixture}},
		{"", 2, "", []string{"diff", fixture}},
	})
}

// TestEnergyFormatResolvesPrintedDelta: wherever diff prints a nonzero
// energy delta, the two values it prints beside it differ too, from
// small-trace proxies of a few units to full-scale ones of 1e6 and up.
func TestEnergyFormatResolvesPrintedDelta(t *testing.T) {
	if a, b := fmtEnergy(1_234_567), fmtEnergy(1_234_567*1.0001); a == b {
		t.Fatalf("a +0.01%% shift at full scale prints %s both sides", a)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		a := math.Pow(10, -3+15*rng.Float64())
		b := a * (1 + (rng.Float64()-0.5)*4e-3)
		d := (&telemetry.SummaryDiff{EnergyA: a, EnergyB: b}).EnergyDelta()
		if p := fmt.Sprintf("%+.2f", 100*d); p != "+0.00" && p != "-0.00" && fmtEnergy(a) == fmtEnergy(b) {
			t.Fatalf("A=%v B=%v print as %s beside a %s%% delta", a, b, fmtEnergy(a), p)
		}
	}
}
