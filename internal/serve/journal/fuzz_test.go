package journal

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to Replay as a log file. Replay never
// fails on a readable file: every line either replays or is counted
// corrupt, a final line without a newline is a torn tail, and the replayed
// payloads are exactly the lines whose "v1 <crc8hex> " frame matches the
// CRC of the rest of the line, in order. The input's lines, used as
// payloads, also round-trip through Append. The seed corpus under
// testdata/fuzz/FuzzReplay holds clean, torn, corrupt and upper-case-hex
// logs.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats, err := Replay(path)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}

		lines := bytes.Split(data, []byte("\n"))
		torn := len(lines[len(lines)-1]) > 0
		if !torn {
			lines = lines[:len(lines)-1] // data is empty or ends in a newline
		}
		if stats.Valid+stats.Corrupt != len(lines) {
			t.Fatalf("Valid %d + Corrupt %d != %d lines", stats.Valid, stats.Corrupt, len(lines))
		}
		if stats.TornTail != torn {
			t.Fatalf("TornTail = %v, want %v", stats.TornTail, torn)
		}
		if stats.Valid != len(got) {
			t.Fatalf("Valid = %d, but %d payloads", stats.Valid, len(got))
		}
		var want [][]byte
		for i, line := range lines {
			if torn && i == len(lines)-1 {
				break // a torn tail never replays, even if it frames cleanly
			}
			if len(line) < 12 || string(line[:3]) != "v1 " || line[11] != ' ' {
				continue
			}
			crc, err := strconv.ParseUint(string(line[3:11]), 16, 32)
			if err != nil || uint32(crc) != crc32.ChecksumIEEE(line[12:]) {
				continue
			}
			want = append(want, line[12:])
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d payloads, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
			}
		}

		// Round trip: the lines as payloads come back from Replay in order.
		rt := filepath.Join(dir, "roundtrip.jsonl")
		j, _, _ := openT(t, rt)
		for _, p := range lines {
			if err := j.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		back, stats, err := Replay(rt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Corrupt != 0 || stats.TornTail || len(back) != len(lines) {
			t.Fatalf("round trip of %d payloads: %d back, %+v", len(lines), len(back), stats)
		}
		for i := range lines {
			if !bytes.Equal(back[i], lines[i]) {
				t.Fatalf("round trip payload %d = %q, want %q", i, back[i], lines[i])
			}
		}
	})
}
