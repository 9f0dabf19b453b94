package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, path string) (*Journal, [][]byte, ReplayStats) {
	t.Helper()
	j, payloads, stats, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, payloads, stats
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	got, stats, err := Replay(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || len(got) != 0 || stats != (ReplayStats{}) {
		t.Fatalf("missing file: %v %v %+v", got, err, stats)
	}
}

func TestCorruptMiddleLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, _, _ := openT(t, path)
	j.Append([]byte(`{"a":1}`))
	j.Close()

	// Inject a flipped-bit line and a bogus-frame line between two valid
	// records: both must be skipped, the surrounding records must survive.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "v1 00000000 {\"flipped\":true}\n")
	fmt.Fprintf(f, "not a frame at all\n")
	f.Close()
	j2, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append([]byte(`{"b":2}`))
	j2.Close()

	got, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Valid != 2 || stats.Corrupt != 2 || stats.TornTail {
		t.Fatalf("stats = %+v", stats)
	}
	if !bytes.Equal(got[0], []byte(`{"a":1}`)) || !bytes.Equal(got[1], []byte(`{"b":2}`)) {
		t.Fatalf("replayed %q", got)
	}
}

func TestAppendRejectsNewlines(t *testing.T) {
	j, _, _ := openT(t, filepath.Join(t.TempDir(), "wal.jsonl"))
	if err := j.Append([]byte("a\nb")); err == nil {
		t.Fatal("newline payload accepted")
	}
}

func TestKillStopsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, _, _ := openT(t, path)
	if err := j.Append([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	j.Kill()
	if err := j.Append([]byte(`{"b":2}`)); err != ErrKilled {
		t.Fatalf("append after kill = %v, want ErrKilled", err)
	}
	// The pre-kill record is durable; the post-kill one never landed.
	got, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Valid != 1 || len(got) != 1 {
		t.Fatalf("stats = %+v, got %q", stats, got)
	}
}

func TestRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, _, _ := openT(t, path)
	for i := 0; i < 100; i++ {
		if err := j.Append(fmt.Appendf(nil, `{"i":%d}`, i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	before, _ := os.Stat(path)

	keep := [][]byte{[]byte(`{"i":42}`), []byte(`{"i":99}`)}
	if err := Rewrite(path, keep); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	got, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Valid != 2 || stats.Corrupt != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	for i := range keep {
		if !bytes.Equal(got[i], keep[i]) {
			t.Fatalf("record %d = %q", i, got[i])
		}
	}
	// No compaction temp files left behind.
	entries, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Fatalf("leftover file %s after rewrite", e.Name())
		}
	}
}

func TestWriteHookCanTearFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tear := false
	j.Hook = func(frame []byte) []byte {
		if tear {
			return frame[:len(frame)/2] // no newline, mangled CRC
		}
		return frame
	}
	j.Append([]byte(`{"a":1}`))
	tear = true
	j.Append([]byte(`{"torn":true}`))
	tear = false
	j.Append([]byte(`{"b":2}`))
	j.Close()

	got, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	// The torn frame merges with the next record's line into one corrupt
	// line; the first record survives, later records count on the tear
	// landing mid-line. What matters: no error, and the intact prefix
	// replays.
	if stats.Corrupt == 0 {
		t.Fatalf("torn frame not detected: %+v", stats)
	}
	if stats.Valid < 1 || !bytes.Equal(got[0], []byte(`{"a":1}`)) {
		t.Fatalf("intact prefix lost: %+v %q", stats, got)
	}
}

func TestConcurrentAppendsAllDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	j, _, _ := openT(t, path)
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append(fmt.Appendf(nil, `{"i":%d}`, i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	j.Close()
	_, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Valid != n || stats.Corrupt != 0 {
		t.Fatalf("stats = %+v, want %d valid", stats, n)
	}
}
