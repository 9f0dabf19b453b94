// Package journal is the crash-safety substrate of dtlserved: an append-only
// write-ahead log of CRC-framed JSON records plus a temp-file+fsync+rename
// compaction primitive. The daemon appends a record before a job becomes
// visible, one when it starts, and one when it reaches a terminal state; on
// restart the replayed log reconstructs the job registry, so a SIGKILL loses
// at most the in-flight execution (which is re-run — sound because identical
// specs produce byte-identical artifacts).
//
// Frame format (one record per line):
//
//	v1 <crc32-ieee-hex8> <json-payload>\n
//
// The CRC covers exactly the payload bytes. Replay is tolerant of the two
// corruptions a crash can leave behind:
//
//   - a torn tail (the process died mid-append): the last line has no
//     newline or fails its CRC — dropped and counted;
//   - a torn middle (a torn append later written over by healthy appends,
//     only reachable under chaos injection): the merged garbage line fails
//     its CRC — skipped and counted, later intact lines still replay.
//
// A record that does not replay simply reverts its job to the previous
// durable state; the recovery layer re-runs anything non-terminal, so a lost
// record costs a re-execution, never corruption.
package journal

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ErrKilled is returned by Append after Kill: the journal simulates a
// power-cut and refuses all further writes.
var ErrKilled = errors.New("journal: killed (simulated power cut)")

// framePrefix is the record version tag; bumping it invalidates old logs
// loudly instead of misparsing them.
const framePrefix = "v1"

// ReplayStats counts what Open found in an existing log.
type ReplayStats struct {
	// Valid is the number of intact records replayed, in order.
	Valid int
	// Corrupt is the number of lines dropped for a CRC or framing failure
	// (torn appends; under chaos, torn middles).
	Corrupt int
	// TornTail is true when the final line was incomplete (no newline) —
	// the classic crash-during-append signature. A torn tail is also
	// counted in Corrupt.
	TornTail bool
}

// WriteHook intercepts the framed bytes of an append before they hit the
// file — the chaos harness uses it to delay writes and tear frames. A nil
// hook is the fast path: no call, no allocation.
type WriteHook func(frame []byte) []byte

// Journal is a single-writer append log. Append is safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	killed atomic.Bool

	// Hook, when non-nil, may mutate (typically truncate) the framed bytes
	// of each append. Set once, before concurrent use.
	Hook WriteHook

	// OnSync, when non-nil, observes the wall-clock duration of each
	// append's fsync — the observability plane feeds it into the
	// journal-fsync latency histogram. Set once, before concurrent use; a
	// nil hook costs one branch.
	OnSync func(d time.Duration)
}

// Open replays the log at path (creating it if absent) and opens it for
// appending. The returned payloads are the intact records in append order.
func Open(path string) (*Journal, [][]byte, ReplayStats, error) {
	payloads, stats, err := Replay(path)
	if err != nil {
		return nil, nil, stats, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return &Journal{f: f}, payloads, stats, nil
}

// Replay reads the log at path without opening it for writes. A missing file
// is an empty log, not an error.
func Replay(path string) ([][]byte, ReplayStats, error) {
	var stats ReplayStats
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, stats, nil
	}
	if err != nil {
		return nil, stats, fmt.Errorf("journal: replay %s: %w", path, err)
	}
	var payloads [][]byte
	for len(raw) > 0 {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			// No newline: the process died mid-append.
			raw = nil
			stats.TornTail = true
			stats.Corrupt++
			continue
		}
		payload, ok := decodeFrame(line)
		if !ok {
			stats.Corrupt++
			continue
		}
		payloads = append(payloads, payload)
		stats.Valid++
	}
	return payloads, stats, nil
}

// decodeFrame parses one "v1 <crc8hex> <payload>" line and checks the CRC.
func decodeFrame(line []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(framePrefix+" "))
	if !ok || len(rest) < 9 || rest[8] != ' ' {
		return nil, false
	}
	var crcBytes [4]byte
	if _, err := hex.Decode(crcBytes[:], rest[:8]); err != nil {
		return nil, false
	}
	payload := rest[9:]
	want := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 | uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}

// encodeFrame renders the framed line for a payload, including the newline.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, 0, len(framePrefix)+1+8+1+len(payload)+1)
	frame = append(frame, framePrefix...)
	frame = append(frame, ' ')
	frame = fmt.Appendf(frame, "%08x", crc32.ChecksumIEEE(payload))
	frame = append(frame, ' ')
	frame = append(frame, payload...)
	frame = append(frame, '\n')
	return frame
}

// Append frames payload, writes it, and fsyncs, so a record that Append
// acknowledged survives a crash. The payload must not contain a newline
// (JSON-marshaled records never do).
func (j *Journal) Append(payload []byte) error {
	if j.killed.Load() {
		return ErrKilled
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("journal: payload contains a newline")
	}
	frame := encodeFrame(payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.killed.Load() {
		return ErrKilled
	}
	if j.Hook != nil {
		frame = j.Hook(frame)
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	var syncStart time.Time
	if j.OnSync != nil {
		syncStart = time.Now()
	}
	err := j.f.Sync()
	if j.OnSync != nil {
		j.OnSync(time.Since(syncStart))
	}
	if err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Kill simulates a power cut: every subsequent Append fails with ErrKilled
// and the file handle is closed, so a "crashed" server object can coexist
// with a recovered one replaying the same path.
func (j *Journal) Kill() {
	if j.killed.Swap(true) {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
}

// Close flushes and closes the log.
func (j *Journal) Close() error {
	if j.killed.Swap(true) {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Rewrite atomically replaces the log at path with exactly the given
// payloads: write to a temp file in the same directory, fsync it, rename
// over the log, fsync the directory. This is the compaction primitive — the
// log either keeps its old content or holds the complete new one.
func Rewrite(path string, payloads [][]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".compact-*")
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, p := range payloads {
		if _, err := w.Write(encodeFrame(p)); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: rewrite: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: rewrite fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: rewrite close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: rewrite rename: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a rename into it is durable. Filesystems
// that reject directory fsync (some CI overlays) are tolerated: the rename
// itself already happened, only its durability window widens.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		// EINVAL/ENOTSUP from exotic filesystems is not a correctness loss.
		return nil
	}
	return nil
}
