// Command dtlbench is the dtl simulator's benchmark. It measures host time,
// the simulator's own cost, on four workloads (suite, selfrefresh, replay,
// schedule) and pins every simulated result to testdata/golden.json, so a
// faster simulator that changes the model is a failed run, not a win.
//
// One workload in this process, the form BENCHMARK.json's command uses:
//
//	dtlbench -workload selfrefresh -seed 1 -seconds 25 -trace 0
//
// Several workloads and repetitions, each run in a fresh child process,
// followed by each metric's median, quartiles and sample count:
//
//	dtlbench -workloads suite,replay -reps 5 -seed 1 -trace 1
//
// Regenerate the golden file (seeds 1 and 2):
//
//	dtlbench -update
//
// bench/run.sh builds the driver and passes its arguments through; see
// bench/README.md for the workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

type config struct {
	workload  string   // one workload in this process
	workloads []string // otherwise: each in a child process
	seed      int64
	seconds   int
	reps      int
	trace     int
	spans     string
	golden    string
	workdir   string
	update    bool
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	c, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "dtlbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "dtlbench: %v\n", err)
		return 1
	}
	switch {
	case c.update:
		if err := updateGolden(c.golden, c.workdir); err != nil {
			fmt.Fprintf(stderr, "dtlbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "golden: wrote %s\n", c.golden)
		return 0
	case c.workload != "":
		return runChild(c, stdout, stderr)
	default:
		return orchestrate(c, stdout, stderr)
	}
}

// parseArgs reads the flags; any error it returns is a usage error (exit 2).
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	var list string
	fs := flag.NewFlagSet("dtlbench", flag.ContinueOnError)
	// realMain prints the one-line error; -h prints the defaults below.
	fs.SetOutput(io.Discard)
	fs.StringVar(&c.workload, "workload", "", "run one workload in this process")
	fs.StringVar(&list, "workloads", "", "comma-separated workloads, each run in a child process (default: all)")
	fs.Int64Var(&c.seed, "seed", 1, "seed the run's inputs derive from (>= 0); seeds 1 and 2 are golden-pinned")
	fs.IntVar(&c.seconds, "seconds", 25, "measure for this many seconds (every input at least once)")
	fs.IntVar(&c.reps, "reps", 1, "repetitions of every workload, alternating their order")
	fs.IntVar(&c.trace, "trace", 0, "1: pair untraced and traced passes and report per-layer metrics")
	fs.StringVar(&c.spans, "spans", "", "traced runs write their spans here as Chrome trace_event JSON (default: in -workdir)")
	fs.StringVar(&c.golden, "golden", "testdata/golden.json", "golden outputs file")
	fs.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for artifacts and spans")
	fs.BoolVar(&c.update, "update", false, "regenerate the golden file at seeds 1 and 2")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.PrintDefaults()
		}
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case c.seed < 0:
		return c, fmt.Errorf("bad -seed %d: want >= 0", c.seed)
	case c.seconds < 1:
		return c, fmt.Errorf("bad -seconds %d: want >= 1", c.seconds)
	case c.reps < 1:
		return c, fmt.Errorf("bad -reps %d: want >= 1", c.reps)
	case c.trace != 0 && c.trace != 1:
		return c, fmt.Errorf("bad -trace %d: want 0 or 1", c.trace)
	case c.workload != "" && list != "":
		return c, fmt.Errorf("-workload and -workloads are exclusive")
	}
	if c.workload != "" {
		if _, ok := workloadByName(c.workload); !ok {
			return c, unknownWorkload(c.workload)
		}
		return c, nil
	}
	if list == "" {
		for _, w := range workloads {
			c.workloads = append(c.workloads, w.name)
		}
		return c, nil
	}
	for _, name := range strings.Split(list, ",") {
		if _, ok := workloadByName(name); !ok {
			return c, unknownWorkload(name)
		}
		c.workloads = append(c.workloads, name)
	}
	return c, nil
}

func unknownWorkload(name string) error {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// spansPath is where a traced run of workload writes its spans.
func (c config) spansPath(workload string) string {
	if c.spans != "" {
		return c.spans
	}
	return filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d.json", workload, c.seed))
}
