package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// runnersByID resolves a list of experiment ids, failing the test on typos.
func runnersByID(t *testing.T, ids ...string) []Runner {
	t.Helper()
	out := make([]Runner, 0, len(ids))
	for _, id := range ids {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		out = append(out, r)
	}
	return out
}

// TestRunAllParallelMatchesSerial is the determinism contract of the
// parallel runner: same Results, byte-identical report, regardless of worker
// count or completion order. The set mixes analytic experiments with ones
// that drive a DTL device so the comparison covers real simulation state.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	ids := []string{"fig6", "table2", "table5", "fig10", "abl-rankgroup", "fig5"}
	runners := runnersByID(t, ids...)

	var serialOut bytes.Buffer
	serial := RunAll(runners, Options{Quick: true, Seed: 1, Out: &serialOut}, 1)

	for _, workers := range []int{2, 4, 16} {
		var parOut bytes.Buffer
		par := RunAll(runners, Options{Quick: true, Seed: 1, Out: &parOut}, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("parallel=%d results differ from serial:\nserial: %+v\nparallel: %+v",
				workers, serial, par)
		}
		if !bytes.Equal(serialOut.Bytes(), parOut.Bytes()) {
			t.Fatalf("parallel=%d report differs from serial run", workers)
		}
	}
}

// TestRunAllOrderAndNilOut checks that results land at their runner's index
// and that a nil Out is tolerated in parallel mode.
func TestRunAllOrderAndNilOut(t *testing.T) {
	runners := runnersByID(t, "table5", "fig6", "table2")
	results := RunAll(runners, Options{Quick: true, Seed: 1}, 3)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range runners {
		if got, ok := ByID(r.ID); !ok || got.ID != r.ID {
			t.Fatalf("runner %d: id lookup broken", i)
		}
	}
	// Result identity: each slot reports the experiment registered there.
	wantTitles := []string{"Table5", "Fig6", "Table2"}
	for i, want := range wantTitles {
		if results[i].ID != want {
			t.Fatalf("slot %d holds %q, want %q", i, results[i].ID, want)
		}
	}
}

// TestSweepPointsBoundedAndOrdered pins the sweep helper: results indexed
// like inputs, concurrency never exceeding the requested bound, all points
// visited exactly once.
func TestSweepPointsBoundedAndOrdered(t *testing.T) {
	points := make([]int, 50)
	for i := range points {
		points[i] = i
	}
	var active, peak int32
	var mu sync.Mutex
	got := sweepPoints(points, 4, func(p int) int {
		n := atomic.AddInt32(&active, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		defer atomic.AddInt32(&active, -1)
		return p * p
	})
	if peak > 4 {
		t.Fatalf("observed %d concurrent workers, bound is 4", peak)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
	// Serial fallback must agree.
	serial := sweepPoints(points, 1, func(p int) int { return p * p })
	if !reflect.DeepEqual(got, serial) {
		t.Fatal("parallel and serial sweeps disagree")
	}
}

// TestAblationSweepParallelMatchesSerial runs a real device-building sweep
// both ways; the table bytes and metrics must match exactly.
func TestAblationSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("device sweep is slow")
	}
	var serialOut, parOut bytes.Buffer
	serial := AblationTSPTimeout(Options{Quick: true, Seed: 1, Out: &serialOut})
	checkMetricsGolden(t, serial)
	par := AblationTSPTimeout(Options{Quick: true, Seed: 1, Out: &parOut, Parallel: 3})
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("sweep results differ:\nserial: %+v\nparallel: %+v", serial, par)
	}
	if !bytes.Equal(serialOut.Bytes(), parOut.Bytes()) {
		t.Fatal("sweep report bytes differ between serial and parallel")
	}
}

// TestSelfRefreshReplaysShared: within one RunAll, Fig15 takes the four
// replays Fig14 ran instead of repeating them. Sharing changes nothing: a
// shared replay equals a fresh one, and serial and parallel runs agree byte
// for byte.
func TestSelfRefreshReplaysShared(t *testing.T) {
	if testing.Short() {
		t.Skip("self-refresh replay is slow")
	}
	sr := sharedSelfRefresh()
	serial := []Result{sr.fig14, sr.fig15}
	if n := len(sr.memo.runs); n != len(srConfigs()) {
		t.Fatalf("fig14 and fig15 made %d distinct replays, want %d", n, len(srConfigs()))
	}
	cfg := srConfigs()[0]
	shared, ok := sr.memo.runs[srKey{quickOpts(), cfg}]
	if !ok {
		t.Fatal("replay not keyed by the options without their report writer")
	}
	if fresh := runSelfRefresh(quickOpts(), cfg); shared.res != fresh {
		t.Fatalf("shared replay %+v, fresh %+v", shared.res, fresh)
	}

	var parOut bytes.Buffer
	o := quickOpts()
	o.Out = &parOut
	par := RunAll(runnersByID(t, "fig14", "fig15"), o, 2)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel results differ:\nserial: %+v\nparallel: %+v", serial, par)
	}
	if !bytes.Equal(sr.out, parOut.Bytes()) {
		t.Fatal("parallel report differs from serial")
	}
}
