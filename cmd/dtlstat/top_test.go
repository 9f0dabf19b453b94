package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dtl/internal/telemetry"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/dtlstat -update
var update = flag.Bool("update", false, "rewrite golden files")

// fixtureLedger charges one cell per cause — including the rack fabric pair —
// so the golden output exercises every row `dtlstat top` can render.
func fixtureLedger(t *testing.T) string {
	t.Helper()
	l := telemetry.NewLedger(8)
	l.Charge(telemetry.SystemVM, 0, telemetry.CauseBaseline, 0, 9000.5)
	l.Charge(1, 0, telemetry.CauseBaseline, 5000, 0)
	l.Charge(1, 1, telemetry.CauseSMCMissWalk, 900, 0)
	l.Charge(1, 1, telemetry.CauseSelfRefreshWake, 4400, 0)
	l.Charge(2, 2, telemetry.CauseDegradedRead, 2500, 0)
	l.Charge(2, 3, telemetry.CauseMigrationCopy, 0, 350.25)
	l.Charge(2, 3, telemetry.CauseMigrationStall, 760, 0)
	l.Charge(3, 4, telemetry.CauseDemotionWait, 1800, 0)
	l.Charge(3, 5, telemetry.CauseFaultRetry, 640, 0)
	// The fabric pair: the stall is time-only by design, the copy is the
	// only fabric entry carrying energy.
	l.Charge(1, 6, telemetry.CauseFabricStall, 3300, 0)
	l.Charge(3, 7, telemetry.CauseFabricCopy, 0, 1200.75)

	path := filepath.Join(t.TempDir(), "ledger.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOut invokes run and returns its stdout and exit status.
func runOut(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, _, code := runStd(t, args...)
	return out, code
}

// runStd invokes run with stdout and stderr each captured in a file, so
// output of any size cannot block on a pipe.
func runStd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	dir := t.TempDir()
	capture := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	outF, errF := capture("stdout"), capture("stderr")
	defer outF.Close()
	defer errF.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code = run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	read := func(f *os.File) string {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return read(outF), read(errF), code
}

// TestTopJSONGolden pins the exact `dtlstat top -json` bytes for a ledger
// carrying every cause, fabric-copy and fabric-stall included. The source
// path varies per run (t.TempDir), so the fixture is read from a stable name
// inside the golden by templating the path out before comparing.
func TestTopJSONGolden(t *testing.T) {
	path := fixtureLedger(t)
	out, code := runOut(t, "top", "-json", path)
	if code != 0 {
		t.Fatalf("top exit %d, output:\n%s", code, out)
	}
	got := bytes.ReplaceAll([]byte(out), []byte(path), []byte("LEDGER"))

	golden := filepath.Join("testdata", "top_fabric.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./cmd/dtlstat -run TestTopJSONGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("top -json output drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
	for _, cause := range []string{"fabric-copy", "fabric-stall"} {
		if !bytes.Contains(got, []byte(`"key": "`+cause+`"`)) {
			t.Errorf("by_cause grouping is missing %q", cause)
		}
	}
}

// TestTopTextNamesFabricCauses keeps the human-readable tables greppable for
// the fabric causes, the same contract CI relies on for the other causes.
func TestTopTextNamesFabricCauses(t *testing.T) {
	path := fixtureLedger(t)
	out, code := runOut(t, "top", path)
	if code != 0 {
		t.Fatalf("top exit %d, output:\n%s", code, out)
	}
	for _, cause := range []string{"fabric-copy", "fabric-stall"} {
		if !bytes.Contains([]byte(out), []byte(cause)) {
			t.Errorf("text tables do not name %q:\n%s", cause, out)
		}
	}
}
