// Command dtlsim regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	dtlsim -list
//	dtlsim -exp fig12            # one experiment, full scale
//	dtlsim -exp all -quick       # everything, reduced scale
//	dtlsim -exp all -quick -parallel 4
//	dtlsim -exp fig14 -seed 7
//	dtlsim -exp fig12 -quick -trace t.json -metrics m.csv -sample 1ms
//	dtlsim -exp fig12 -quick -trace t.jsonl -trace-format jsonl
//	dtlsim -exp fig12 -quick -policy reserve=3 -trace b.jsonl -trace-format jsonl
//	dtlsim -exp fig12 -watch
//	dtlsim -exp faults -quick -faults 'storm:ch1/rk2:at=90m;kill:ch3/rk1:at=3h'
//	dtlsim -exp fig14 -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -trace writes a trace of the run; -trace-format selects the encoding:
// chrome (default; a trace_event JSON to open in Perfetto or
// chrome://tracing), jsonl (one record per line), or csv (the same records
// as a fixed-column table). The run always streams every record as JSONL
// as it executes, and keeps no copy in memory: jsonl writes that stream to
// the -trace file itself, while chrome and csv stream to a temp file beside
// it and convert it at the end, exactly as `dtlstat convert` would.
// Summarize a jsonl trace with `dtlstat read`; compare two runs with
// `dtlstat diff`. -metrics samples every registry
// metric into a CSV time series; -sample sets the virtual-time sampling
// period (0 = a default matched to the experiment's horizon).
// -faults injects a deterministic fault process (internal/fault grammar) into
// the schedule-driven experiments, exercising the self-healing loop.
// -policy overrides power-policy knobs for A/B comparisons with `dtlstat
// diff`: 'reserve=N' (free-rank-group headroom before power-down),
// 'window=DUR'/'threshold=DUR' (hotness profiling window and victim idle
// threshold), and 'srmin=N' (standby ranks a channel keeps after a victim
// enters self-refresh). Unknown keys fail loudly.
// -watch paints a live dashboard on stderr: per-rank power-state strip,
// rolling counters, and an ETA; plain ANSI on a terminal, one line per
// snapshot when piped. Watching never alters results.
//
// -parallel N runs the selected experiments across N workers; reports print
// in the same order and with the same bytes as a serial run (when several
// experiments run in parallel the shared -trace/-metrics files are disabled,
// since they would interleave). It rejects negative or explicit-zero values
// and is capped at GOMAXPROCS.
// -cpuprofile/-memprofile write pprof profiles of the run for
// `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dtl/internal/cliflag"
	"dtl/internal/experiments"
	"dtl/internal/fault"
	"dtl/internal/rack"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// boundedWorkers validates the -parallel value, rejecting negatives
// and explicit zeros (exit 2) and capping at GOMAXPROCS with a warning.
func boundedWorkers(name string, v int) int {
	explicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			explicit = true
		}
	})
	n, warn, err := cliflag.BoundedWorkers(name, v, explicit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtlsim:", err)
		os.Exit(2)
	}
	if warn != "" {
		fmt.Fprintln(os.Stderr, "dtlsim:", warn)
	}
	return n
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (fig1..fig15, table2..table6, amat) or 'all'")
		quick    = flag.Bool("quick", false, "reduced-scale run for smoke testing")
		seed     = flag.Int64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list available experiments")
		jsonOut  = flag.Bool("json", false, "emit results as JSON (suppresses tables)")
		csvDir   = flag.String("csv", "", "directory for plot-ready CSV series (fig1/fig9/fig12/fig14)")
		trace    = flag.String("trace", "", "write a trace of the run (fig9/fig12/fig13/fig14)")
		traceFmt = flag.String("trace-format", "chrome", "trace encoding: chrome, jsonl, or csv (chrome and csv are converted from the jsonl stream at the end; dtlstat reads jsonl)")
		metrics  = flag.String("metrics", "", "write sampled registry metrics as CSV")
		ledger   = flag.String("ledger", "", "write the (vm, rank, cause) attribution cost ledger as JSON (same experiments as -trace)")
		sample   = flag.String("sample", "0", "virtual-time metrics sampling period (e.g. 1ms; 0 = per-experiment default)")
		faults   = flag.String("faults", "", "fault-injection spec for the schedule experiments (fig12/fig13/faults/rack), e.g. 'seed=7;storm:ch1/rk2:at=90m;kill:ch3/rk1:at=3h' (rack runs accept expander-scoped targets like kill:x2/ch0/rk0)")
		policy   = flag.String("policy", "", "power-policy overrides for A/B runs, e.g. 'reserve=3;threshold=80ms;srmin=2'")
		rackN    = flag.Int("rack", 0, "expander count for the rack experiment (0 = its default of 4)")
		fabric   = flag.String("fabric", "", "rack fabric model and placement policy, e.g. 'hop=150ns;gbs=32;policy=pack'")
		watch    = flag.Bool("watch", false, "live dashboard on stderr (power-state strip, counters, ETA)")

		parallel   = flag.Int("parallel", 1, "run experiments across N workers (reports stay in serial order)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit")
	)
	flag.Parse()

	*parallel = boundedWorkers("parallel", *parallel)

	samplePeriod, err := time.ParseDuration(*sample)
	if err != nil || samplePeriod < 0 {
		fmt.Fprintf(os.Stderr, "dtlsim: bad -sample %q: want a duration like 1ms\n", *sample)
		os.Exit(2)
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Name)
		}
		return
	}

	var out io.Writer = os.Stdout
	if *jsonOut {
		out = io.Discard
	}
	if *faults != "" {
		if _, err := fault.Parse(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "dtlsim:", err)
			os.Exit(2)
		}
	}
	format, err := telemetry.ParseTraceFormat(*traceFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtlsim:", err)
		os.Exit(2)
	}
	if format != telemetry.FormatChrome && *trace == "" {
		fmt.Fprintln(os.Stderr, "dtlsim: -trace-format has no effect without -trace")
	}
	pol, err := experiments.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtlsim:", err)
		os.Exit(2)
	}
	rackExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rack" {
			rackExplicit = true
		}
	})
	rackCount, err := cliflag.CheckCount("rack", *rackN, rackExplicit, rack.MaxExpanders)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtlsim:", err)
		os.Exit(2)
	}
	if _, err := rack.ParseFabric(*fabric); err != nil {
		fmt.Fprintln(os.Stderr, "dtlsim:", err)
		os.Exit(2)
	}
	opts := experiments.Options{
		Quick: *quick, Seed: *seed, Out: out, CSVDir: *csvDir,
		TracePath: *trace, MetricsPath: *metrics, LedgerPath: *ledger,
		TraceFormat:  format,
		SamplePeriod: sim.Time(samplePeriod.Nanoseconds()),
		FaultSpec:    *faults,
		Parallel:     *parallel,
		Policy:       pol,
		Rack:         rackCount,
		Fabric:       *fabric,
	}

	var watchDone chan struct{}
	if *watch {
		if *parallel > 1 {
			fmt.Fprintln(os.Stderr, "dtlsim: -watch is disabled when experiments run in parallel")
		}
		// Cap 1: the publisher coalesces, so the renderer always reads the
		// newest snapshot and can never stall virtual time.
		opts.Watch = make(chan experiments.WatchSnapshot, 1)
		watchDone = make(chan struct{})
		go runWatch(opts.Watch, watchDone)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtlsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dtlsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = nil
		for _, r := range experiments.All() {
			ids = append(ids, r.ID)
		}
	}
	var runners []experiments.Runner
	for _, id := range ids {
		r, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "dtlsim: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		runners = append(runners, r)
	}
	results := experiments.RunAll(runners, opts, *parallel)
	if opts.Watch != nil {
		close(opts.Watch) // experiments never close it; the runs are over
		<-watchDone
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtlsim:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dtlsim:", err)
			os.Exit(1)
		}
		f.Close()
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "dtlsim:", err)
			os.Exit(1)
		}
	}
}
