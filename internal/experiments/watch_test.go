package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dtl/internal/telemetry"
)

// fig12QuickRecords is the number of records quick fig12 traces at seed 1.
const fig12QuickRecords = 104868

// TestFig12StreamedJSONLMatchesChromeTrace: a chrome run's trace is its
// JSONL stream converted at finish, so it is byte for byte what
// telemetry.ConvertTraceFile makes of a jsonl run's trace, and it holds
// every streamed record.
func TestFig12StreamedJSONLMatchesChromeTrace(t *testing.T) {
	dir := t.TempDir()

	chromeOpts := quickOpts()
	chromeOpts.TracePath = filepath.Join(dir, "t.json")
	runPowerDownSchedule(chromeOpts)

	jsonlOpts := quickOpts()
	jsonlOpts.TracePath = filepath.Join(dir, "t.jsonl")
	jsonlOpts.TraceFormat = telemetry.FormatJSONL
	runPowerDownSchedule(jsonlOpts)

	converted := filepath.Join(dir, "converted.json")
	if err := telemetry.ConvertTraceFile(jsonlOpts.TracePath, converted, telemetry.FormatChrome); err != nil {
		t.Fatal(err)
	}
	chrome, err := os.ReadFile(chromeOpts.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(converted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chrome, want) {
		t.Fatal("chrome run's trace differs from the conversion of the jsonl run's trace")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("trace dir holds %d files, want 3 (the temp stream must be removed)", len(entries))
	}

	jsonl, err := os.ReadFile(jsonlOpts.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			records++
		}
	}
	if lines := bytes.Count(jsonl, []byte("\n")); records != fig12QuickRecords || lines != fig12QuickRecords {
		t.Fatalf("chrome trace holds %d records, jsonl %d lines; want %d each", records, lines, fig12QuickRecords)
	}
}

// drainWatch collects every snapshot until the channel is closed.
func drainWatch(ch chan WatchSnapshot) (func() []WatchSnapshot, *sync.WaitGroup) {
	var mu sync.Mutex
	var snaps []WatchSnapshot
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := range ch {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		}
	}()
	return func() []WatchSnapshot {
		mu.Lock()
		defer mu.Unlock()
		return snaps
	}, &wg
}

// TestFig12WatchSnapshots: a watched run publishes well-formed snapshots
// (full rank strip, valid states, monotone clock, final Done) and produces a
// byte-identical report to an unwatched run — watching is pure observation.
func TestFig12WatchSnapshots(t *testing.T) {
	var plain bytes.Buffer
	o := quickOpts()
	o.Out = &plain
	runPowerDownSchedule(o)

	var watched bytes.Buffer
	ow := quickOpts()
	ow.Out = &watched
	ow.Watch = make(chan WatchSnapshot, 1)
	collect, wg := drainWatch(ow.Watch)
	run := runPowerDownSchedule(ow)
	close(ow.Watch)
	wg.Wait()

	if !bytes.Equal(plain.Bytes(), watched.Bytes()) {
		t.Fatal("report bytes differ between watched and unwatched runs")
	}

	snaps := collect()
	if len(snaps) == 0 {
		t.Fatal("no watch snapshots published")
	}
	last := snaps[len(snaps)-1]
	if !last.Done {
		t.Fatalf("last snapshot not Done: %+v", last)
	}
	if last.Now != run.horizon || last.Horizon != run.horizon {
		t.Fatalf("final snapshot at %v/%v, want horizon %v", last.Now, last.Horizon, run.horizon)
	}

	wantRanks := pdGeometry().TotalRanks()
	valid := map[string]bool{"standby": true, "self-refresh": true, "mpsm": true, "retired": true}
	var prev WatchSnapshot
	for i, s := range snaps {
		if len(s.Ranks) != wantRanks {
			t.Fatalf("snapshot %d has %d ranks, want %d", i, len(s.Ranks), wantRanks)
		}
		for _, r := range s.Ranks {
			if !valid[r.State] {
				t.Fatalf("snapshot %d rank %s in unknown state %q", i, r.Name, r.State)
			}
		}
		if i > 0 {
			if s.Now < prev.Now {
				t.Fatalf("snapshot clock went backwards: %v after %v", s.Now, prev.Now)
			}
			if s.Migrations < prev.Migrations || s.Faults < prev.Faults {
				t.Fatalf("rolling counters went backwards at snapshot %d", i)
			}
		}
		prev = s
	}
	// The power-down schedule must show some rank leaving standby.
	saw := false
	for _, r := range last.Ranks {
		if r.State == "mpsm" || r.State == "self-refresh" {
			saw = true
		}
	}
	if !saw {
		t.Error("no rank ever left standby in a power-down schedule")
	}
}

// TestFaultsRunMetricsCSVStaysRectangular is the faults-experiment streaming
// contract: ranks retiring mid-run must not disturb the metrics CSV — the
// column set is fixed at header time, every row matches it, and no metric is
// registered late (which Finish would reject).
func TestFaultsRunMetricsCSVStaysRectangular(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.MetricsPath = filepath.Join(dir, "m.csv")
	o.FaultSpec = defaultFaultSpec(o.Seed)

	run := runPowerDownSchedule(o)
	if run.retiredRanks == 0 {
		t.Fatal("fault spec retired no ranks; the mid-stream retirement case is untested")
	}

	data, err := os.ReadFile(o.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("metrics CSV has only %d lines", len(lines))
	}
	cols := strings.Count(lines[0], ",")
	for i, l := range lines[1:] {
		if got := strings.Count(l, ","); got != cols {
			t.Fatalf("row %d has %d separators, header has %d:\n%s", i+1, got, cols, l)
		}
	}
	// Retirement shows up as data movement in the fixed columns, not as new
	// columns: the retired-ranks counter was registered at construction.
	if !strings.Contains(lines[0], "core.ranks_retired") {
		t.Fatalf("header missing core.ranks_retired: %s", lines[0])
	}
}
