package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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
