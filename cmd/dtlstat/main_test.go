package main

import "testing"

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
