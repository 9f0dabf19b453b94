package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"

	"dtl/internal/experiments"
)

// outputs are one pass's simulated results, group → key → value. Floats are
// formatted with strconv 'g', -1, so equal strings mean equal bits.
type outputs map[string]map[string]string

// goldenFile maps workload → simulated seed → outputs. Its suite entry at a
// seed holds every runner's quick-scale Result.Metrics keyed by runner id,
// which is the layout a per-experiment metrics oracle reads.
type goldenFile map[string]map[string]outputs

// goldenSeeds are the -seed values testdata/golden.json pins: every input of
// a run at these seeds has an entry.
var goldenSeeds = []int64{1, 2}

func loadGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden: parsing %s: %w", path, err)
	}
	return g, nil
}

// lookup returns the entry for one workload and simulated seed; ok is false
// when the file pins no entry for that seed.
func (g goldenFile) lookup(workload string, seed int64) (want outputs, ok bool) {
	want, ok = g[workload][strconv.FormatInt(seed, 10)]
	return want, ok
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// floats formats a metrics map, rejecting values that are not finite.
func floats(m map[string]float64) (map[string]string, error) {
	out := make(map[string]string, len(m))
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, v)
		}
		out[k] = fmtFloat(v)
	}
	return out, nil
}

// fields formats every integer and float field of a stats struct.
func fields(v any) map[string]string {
	out := map[string]string{}
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			out[rv.Type().Field(i).Name] = strconv.FormatInt(f.Int(), 10)
		case reflect.Float64:
			out[rv.Type().Field(i).Name] = fmtFloat(f.Float())
		}
	}
	return out
}

// diff lists every group.key whose value differs, sorted.
func diff(got, want outputs) []string {
	var out []string
	for g, m := range got {
		for k, v := range m {
			if w, ok := want[g][k]; !ok {
				out = append(out, fmt.Sprintf("%s.%s: got %s, not in golden", g, k, v))
			} else if w != v {
				out = append(out, fmt.Sprintf("%s.%s: got %s, golden %s", g, k, v, w))
			}
		}
	}
	for g, m := range want {
		for k, w := range m {
			if _, ok := got[g][k]; !ok {
				out = append(out, fmt.Sprintf("%s.%s: missing, golden %s", g, k, w))
			}
		}
	}
	sort.Strings(out)
	return out
}

// simulate sets up, runs and finishes one untimed pass.
func simulate(w workload, p params) (outputs, error) {
	ps, err := w.setup(p)
	if err != nil {
		return nil, err
	}
	if _, failed := ps.run(nil); failed != 0 {
		return nil, fmt.Errorf("%d operations failed", failed)
	}
	return ps.finish()
}

// updateGolden reruns every input of the runs at goldenSeeds and rewrites
// path. It refuses to write unless the selfrefresh driver at Fig. 14's
// horizon reproduces the quick Fig14 runner's saving_26gib-5grp bit for
// bit: the bench-owned driver must be the real experiment, not a look-alike.
func updateGolden(path, workdir string) error {
	fmt.Fprintln(os.Stderr, "golden: fig14 against selfrefresh at seed 1")
	w, _ := workloadByName("selfrefresh")
	sr, err := simulate(w, params{seed: 1, accesses: fig14Accesses})
	if err != nil {
		return fmt.Errorf("selfrefresh: %w", err)
	}
	fig14 := experiments.Fig14(experiments.Options{Quick: true, Seed: 1}).Metrics["saving_26gib-5grp"]
	if got := sr["energy"]["saving"]; got != fmtFloat(fig14) {
		return fmt.Errorf("refusing to write %s: selfrefresh saving %s != Fig14 saving_26gib-5grp %s",
			path, got, fmtFloat(fig14))
	}

	g := goldenFile{}
	for _, w := range workloads {
		g[w.name] = map[string]outputs{}
		for _, run := range goldenSeeds {
			for _, seed := range w.seeds(run) {
				fmt.Fprintf(os.Stderr, "golden: %s seed %d\n", w.name, seed)
				out, err := simulate(w, params{seed: seed, workdir: workdir})
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				g[w.name][strconv.FormatInt(seed, 10)] = out
			}
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, g.marshal(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// marshal writes one group per line, so a changed value is a one-line diff.
// Keys are sorted, seeds numerically.
func (g goldenFile) marshal() []byte {
	var b bytes.Buffer
	comma := func(i, n int) string {
		if i < n-1 {
			return ","
		}
		return ""
	}
	b.WriteString("{\n")
	names := sortedKeys(g)
	for i, name := range names {
		fmt.Fprintf(&b, " %q: {\n", name)
		seeds := sortedKeys(g[name])
		sort.Slice(seeds, func(i, j int) bool {
			x, _ := strconv.ParseInt(seeds[i], 10, 64)
			y, _ := strconv.ParseInt(seeds[j], 10, 64)
			return x < y
		})
		for j, seed := range seeds {
			fmt.Fprintf(&b, "  %q: {\n", seed)
			groups := sortedKeys(g[name][seed])
			for k, group := range groups {
				v, err := json.Marshal(g[name][seed][group])
				if err != nil {
					panic(err) // a map of strings always marshals
				}
				fmt.Fprintf(&b, "   %q: %s%s\n", group, v, comma(k, len(groups)))
			}
			fmt.Fprintf(&b, "  }%s\n", comma(j, len(seeds)))
		}
		fmt.Fprintf(&b, " }%s\n", comma(i, len(names)))
	}
	b.WriteString("}\n")
	return b.Bytes()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
