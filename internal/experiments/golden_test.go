package experiments

import (
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// update rewrites the exact-metrics golden instead of comparing against it:
//
//	go test ./internal/experiments -update
var update = flag.Bool("update", false, "rewrite golden files")

var metricsGolden = filepath.Join("testdata", "metrics.golden.json")

// formatMetrics renders every metric of res exactly: strconv's shortest
// round-trip form, so any change to a float's bits changes the text.
func formatMetrics(res Result) map[string]string {
	out := make(map[string]string, len(res.Metrics))
	for k, v := range res.Metrics {
		out[k] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}

// checkMetricsGolden pins res.Metrics (a quick-scale run at seed 1; the
// rack entry adds rackOpts' fabric) bit for bit against its entry in
// testdata/metrics.golden.json, one entry per experiment. The shape tests
// call it on the result they already computed, so pinning costs no extra
// run. With -update it rewrites only res.ID's entry.
func checkMetricsGolden(t *testing.T, res Result) {
	t.Helper()
	checkMetricsGoldenAs(t, res.ID, res)
}

// checkMetricsGoldenAs is checkMetricsGolden under the entry key rather
// than res.ID, for a second configuration of the same experiment.
func checkMetricsGoldenAs(t *testing.T, key string, res Result) {
	t.Helper()
	all := map[string]map[string]string{}
	raw, err := os.ReadFile(metricsGolden)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &all); err != nil {
			t.Fatalf("%s: %v", metricsGolden, err)
		}
	case errors.Is(err, fs.ErrNotExist) && *update:
	default:
		t.Fatalf("%v (regenerate with go test ./internal/experiments -update)", err)
	}

	got := formatMetrics(res)
	if *update {
		all[key] = got
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want, ok := all[key]
	if !ok {
		t.Fatalf("%s has no entry for %s (regenerate with -update)", metricsGolden, key)
	}
	var diffs []string
	for k, w := range want {
		if g, ok := got[k]; !ok {
			diffs = append(diffs, k+": missing, want "+w)
		} else if g != w {
			diffs = append(diffs, k+": got "+g+", want "+w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, k+": unexpected "+g)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		t.Fatalf("%s metrics drifted from %s:\n  %s", key, metricsGolden, strings.Join(diffs, "\n  "))
	}
}
