// Observability demonstrates the trace/metrics tooling end to end without
// leaving Go: it runs the Figure 12 power-down schedule at quick scale with
// the streaming JSONL trace sink and the metrics CSV sampler enabled, then
// re-reads the trace the way `dtlstat read` does and shows that the offline
// summary reproduces the live run — residency shares, migration latencies,
// and the background-energy proxy all come back out of the trace file.
//
// The equivalent shell session is:
//
//	dtlsim -exp fig12 -quick -trace run.jsonl -trace-format jsonl -metrics run.csv
//	dtlstat read run.jsonl
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"

	"dtl/internal/experiments"
	"dtl/internal/metrics"
	"dtl/internal/telemetry"
)

func main() {
	dir, err := os.MkdirTemp("", "dtl-observability")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "run.jsonl")
	metricsPath := filepath.Join(dir, "run.csv")

	// One quick fig12 run with both sinks attached. The JSONL sink streams:
	// every event reaches the file even if the run outgrows the in-memory
	// trace ring.
	fig12, ok := experiments.ByID("fig12")
	if !ok {
		log.Fatal("fig12 runner not registered")
	}
	opts := experiments.Options{
		Quick:       true,
		Seed:        1,
		Out:         io.Discard, // the live report; we only want the sinks here
		TracePath:   tracePath,
		TraceFormat: telemetry.FormatJSONL,
		MetricsPath: metricsPath,
	}
	experiments.RunAll([]experiments.Runner{fig12}, opts, 1)

	lines, bytes := fileShape(tracePath)
	fmt.Printf("trace:   %s  (%d JSONL records, %d bytes)\n", filepath.Base(tracePath), lines, bytes)
	lines, bytes = fileShape(metricsPath)
	fmt.Printf("metrics: %s  (%d CSV rows, %d bytes)\n\n", filepath.Base(metricsPath), lines, bytes)

	// Re-read the trace offline, exactly as `dtlstat read` would.
	f, err := os.Open(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	s, err := telemetry.SummarizeJSONL(f)
	if err != nil {
		log.Fatal(err)
	}

	ranks := s.Ranks()
	fmt.Printf("summarized from trace: %d ranks, run %.0f s\n", len(ranks), s.RankDuration(ranks[0])/1e6)

	// Device-wide residency per power state.
	totals := map[string]float64{}
	var total float64
	for _, rank := range ranks {
		for state, us := range s.Residency[rank] {
			totals[state] += us
		}
		total += s.RankDuration(rank)
	}
	states := make([]string, 0, len(totals))
	for st := range totals {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Printf("  %-14s %5.1f%% of rank-time\n", st, 100*totals[st]/total)
	}

	fmt.Printf("\nmigrations: %d", len(s.MigrationsUs))
	if len(s.MigrationsUs) > 0 {
		sum := metrics.Summarize(s.MigrationsUs)
		fmt.Printf("  (P50 %.1f us, P99 %.1f us)", sum.P50, sum.P99)
	}
	fmt.Printf("\nenergy proxy: %.3g weight-us (standby=1.0, self-refresh=0.2, mpsm=0.068)\n",
		s.EnergyProxy(nil))

	// The payoff: a second identical run diffs to exactly zero, which is what
	// lets CI gate policy changes with `dtlstat diff`.
	tracePath2 := filepath.Join(dir, "run2.jsonl")
	opts.TracePath = tracePath2
	experiments.RunAll([]experiments.Runner{fig12}, opts, 1)
	f2, err := os.Open(tracePath2)
	if err != nil {
		log.Fatal(err)
	}
	defer f2.Close()
	s2, err := telemetry.SummarizeJSONL(f2)
	if err != nil {
		log.Fatal(err)
	}
	d := telemetry.DiffSummaries(s, s2)
	bad := d.Check(telemetry.DiffTolerance{Share: 1e-9, LatFrac: 1e-9, EnergyFrac: 1e-9})
	if len(bad) != 0 {
		log.Fatalf("repeated run drifted: %v", bad)
	}
	fmt.Println("\nrepeated run diffs to zero: deterministic, CI-gateable")
}

// fileShape reports a sink file's line and byte counts.
func fileShape(path string) (lines, bytes int) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		bytes += len(sc.Bytes()) + 1
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return lines, bytes
}
