package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// runOnce sets up, runs and finishes one pass of w.
func runOnce(t *testing.T, w workload, p params, pr *probe) outputs {
	t.Helper()
	ps, err := w.setup(p)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if pr != nil {
		pr.beginPass(w.name)
	}
	attempted, failed := ps.run(pr)
	if pr != nil {
		pr.endPass(attempted)
	}
	if attempted == 0 || failed != 0 {
		t.Fatalf("attempted %d, failed %d", attempted, failed)
	}
	out, err := ps.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return out
}

// Each driver at a small size gives the same simulated outputs on a repeat
// run with tracing on, and every per-layer metric it reports is listed.
func TestDriversRepeatWithTraceOnAndOff(t *testing.T) {
	cases := []params{
		// The suite's cheapest runners; all of them take ~2.7 s.
		{runners: []string{"fig1", "fig6", "fig11", "table2", "table5", "table6", "abl-rankgroup"}},
		{accesses: 50_000},
		{accesses: 50_000},
		{quick: true},
	}
	for i, w := range workloads {
		p := cases[i]
		t.Run(w.name, func(t *testing.T) {
			p.seed = 1
			p.workdir = t.TempDir()
			untraced := runOnce(t, w, p, nil)
			pr := newProbe()
			traced := runOnce(t, w, p, pr)
			if d := diff(traced, untraced); len(d) > 0 {
				t.Fatalf("traced outputs differ from untraced: %v", d)
			}
			for name := range layerMetrics(pr, 1, 1) {
				if metricUnit(name) == "" {
					t.Errorf("per-layer metric %s is not in the per_layer list", name)
				}
			}
		})
	}
}

// The driver's metric lists are BENCHMARK.json's, and every name is legal.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, driver has %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, driver has %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d = %q, driver has %q", i, w.Name, workloads[i].name)
		}
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !legal.MatchString(m.Name) {
				t.Errorf("metric name %q", m.Name)
			}
		}
	}
}

// The golden file parses and pins every input of the runs at the golden
// seeds, and the file is in the layout -update writes.
func TestGoldenParses(t *testing.T) {
	b, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, run := range goldenSeeds {
			for _, seed := range w.seeds(run) {
				if want, ok := g.lookup(w.name, seed); !ok || len(want) == 0 {
					t.Errorf("no golden %s entry at seed %d", w.name, seed)
				}
			}
		}
	}
	if !bytes.Equal(g.marshal(), b) {
		t.Error("testdata/golden.json is not in the layout -update writes")
	}
}

// A run's inputs start at its seed, and runs at different seeds below
// seedStride share none.
func TestSeedsAreDisjoint(t *testing.T) {
	for _, w := range workloads {
		seen := map[int64]int64{}
		for run := int64(0); run < 50; run++ {
			seeds := w.seeds(run)
			if len(seeds) != w.inputs || seeds[0] != run {
				t.Fatalf("%s: seeds(%d) = %v", w.name, run, seeds)
			}
			for _, s := range seeds {
				if prev, ok := seen[s]; ok {
					t.Fatalf("%s: runs at seeds %d and %d both simulate %d", w.name, prev, run, s)
				}
				seen[s] = run
			}
		}
	}
}

// A changed, missing or extra value fails the golden check and every
// operation of the run.
func TestGoldenMismatchFails(t *testing.T) {
	want := outputs{"replay": {"accesses": "10", "row_hits": "4"}}
	for _, got := range []outputs{
		{"replay": {"accesses": "10", "row_hits": "5"}},
		{"replay": {"accesses": "10"}},
		{"replay": {"accesses": "10", "row_hits": "4", "lat_sum_ns": "7"}},
	} {
		r := &childRun{out: &bytes.Buffer{}, res: result{Correct: true}}
		r.checkGolden(1, got, want, true)
		if r.res.Correct || !r.mismatch {
			t.Errorf("%v passed the golden check against %v", got, want)
		}
	}
	r := &childRun{out: &bytes.Buffer{}, res: result{Correct: true}}
	r.checkGolden(1, want, want, true)
	if !r.res.Correct || r.mismatch || r.matched != 1 {
		t.Error("identical outputs failed the golden check")
	}
}

// Unknown workloads and bad -seed, -reps, -seconds or -trace values are
// usage errors: exit status 2 with a message. run.sh passes its arguments
// through to the driver, so the same holds for it.
func TestBadArgumentsExit2(t *testing.T) {
	bad := [][]string{
		{"-workload", "nope"},
		{"-workloads", "suite,nope"},
		{"-workloads", "suite,"},
		{"-seed", "-1"},
		{"-seed", "x"},
		{"-reps", "0"},
		{"-reps", "two"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-workload", "suite", "extra"},
	}
	for _, args := range bad {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("dtlbench %v: exit %d, stderr %q", args, code, stderr.String())
		}
	}
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{7}, 7, 7, 7}, // Python refuses one value; a single run is its own median
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
