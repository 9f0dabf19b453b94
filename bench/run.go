package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// After its passes an untraced run times set-ups until it has at least
// minSetups samples and setupBudget has passed; setup_s is their median. A
// sample is the mean of a batch of set-ups that together take at least
// setupSample, so a set-up of a few microseconds is not lost in the clock's
// resolution. Every sample starts from a collected heap.
const (
	minSetups   = 15
	setupBudget = 300 * time.Millisecond
	setupSample = time.Millisecond
)

// result is the JSON object every run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childRun is one workload measured in this process.
type childRun struct {
	c        config
	w        workload
	seeds    []int64 // the run's inputs
	golden   goldenFile
	out      io.Writer
	res      result
	ref      map[int64]outputs // each input's first outputs; later passes must equal them
	matched  int               // inputs whose first outputs equal their golden entry
	unpinned int               // inputs with no golden entry
	mismatch bool              // a golden entry existed and differed
	perPass  int64             // simulated accesses per pass; 0 for runner workloads
}

func (r *childRun) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Fprintf(r.out, "# FAIL: "+format+"\n", args...)
}

func (r *childRun) params(k int) params {
	return params{seed: r.seeds[k], workdir: r.c.workdir}
}

// passCost is what one pass cost the host.
type passCost struct {
	wall     float64 // seconds of the run, set-up excluded
	allocMiB float64 // allocated by set-up and run
	rssMiB   float64 // peak resident set during set-up and run
}

// pass sets up, runs and checks one pass of input k; pr is nil for an
// untraced pass. ok is false when the pass could not run at all.
func (r *childRun) pass(k int, pr *probe) (cost passCost, out outputs, ok bool) {
	// Each pass starts from a collected heap with the peak resident set reset
	// to the current one, as in a fresh process, and reports its own peak.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.fail("resetting the peak RSS: %v", err)
		return cost, nil, false
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	ps, err := r.w.setup(r.params(k))
	if err != nil {
		r.fail("setup: %v", err)
		return cost, nil, false
	}
	if pr != nil {
		pr.beginPass(r.w.name)
	}
	t0 := time.Now()
	attempted, failed := ps.run(pr)
	cost.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms)
	cost.allocMiB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	if cost.rssMiB, err = peakRSSMiB(); err != nil {
		r.fail("peak RSS: %v", err)
	}
	if r.w.accesses {
		r.perPass = attempted
	}
	if pr != nil {
		pr.endPass(r.perPass)
	}
	r.res.Attempted += attempted
	r.res.Failed += failed

	seed := r.seeds[k]
	out, err = ps.finish()
	switch {
	case err != nil:
		r.fail("seed %d: %v", seed, err)
	case r.ref[seed] == nil:
		r.ref[seed] = out
		want, pinned := r.golden.lookup(r.w.name, seed)
		r.checkGolden(seed, out, want, pinned)
	default:
		if d := diff(out, r.ref[seed]); len(d) > 0 {
			r.fail("seed %d: pass outputs differ from the first pass: %s", seed, d[0])
		}
	}
	return cost, out, true
}

func (r *childRun) checkGolden(seed int64, out, want outputs, pinned bool) {
	if !pinned {
		r.unpinned++
		fmt.Fprintf(r.out, "# golden: none for seed %d (checked invariants, finite metrics, no canceled runner)\n", seed)
		return
	}
	d := diff(out, want)
	if len(d) == 0 {
		r.matched++
		return
	}
	r.mismatch = true
	r.fail("golden: seed %d: %d values differ", seed, len(d))
	for _, line := range d[:min(len(d), 10)] {
		fmt.Fprintln(r.out, "#   "+line)
	}
}

// peakRSSMiB reads the process's peak resident set since the last reset,
// VmHWM in /proc/self/status. getrusage's maxrss is not used: it cannot be
// reset, and Linux carries it across execve, so a 5 MiB run started from a
// 14 MiB process would read 14 MiB.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// more reports whether a run that started at start and whose last step took
// last should take another step: while the next one is due to end within the
// run's seconds.
func (r *childRun) more(start time.Time, last time.Duration) bool {
	return time.Since(start)+last <= time.Duration(r.c.seconds)*time.Second
}

// untraced runs passes over the run's inputs in turn, every input at least
// once, and then while the next pass fits in the run's seconds. It reports
// the end-to-end metrics: wall_s and alloc_mib are the mean over inputs of
// each input's median pass, so every input weighs the same however many
// passes it got; peak_rss_mib is the median over all passes, which ignores
// the passes where a GC cycle fell at the worst time.
func (r *childRun) untraced() map[string]float64 {
	n := len(r.seeds)
	walls, allocs := make([][]float64, n), make([][]float64, n)
	var rss []float64
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		k := i % n
		cost, _, ok := r.pass(k, nil)
		if !ok {
			break
		}
		walls[k] = append(walls[k], cost.wall)
		allocs[k] = append(allocs[k], cost.allocMiB)
		rss = append(rss, cost.rssMiB)
		if i+1 >= n && !r.more(start, time.Since(t0)) {
			break
		}
	}
	wall := meanOfMedians(walls)
	fmt.Fprintf(r.out, "# %s: %d passes over %d inputs in %.1f s; median pass per input (s) %.4g; peak RSS per pass (MiB) %.4g\n",
		r.w.name, len(rss), n, time.Since(start).Seconds(), medians(walls), rss)
	if r.perPass > 0 {
		fmt.Fprintf(r.out, "accesses_per_s %g 1/s\n", float64(r.perPass)/wall)
	}
	return map[string]float64{
		"wall_s":       wall,
		"setup_s":      median(r.timeSetups()),
		"peak_rss_mib": median(rss),
		"alloc_mib":    meanOfMedians(allocs),
	}
}

// timeSetups samples set-ups of the run's inputs in turn; see setupSample.
func (r *childRun) timeSetups() []float64 {
	var samples []float64
	batch := 1
	for i, start := 0, time.Now(); len(samples) < minSetups || time.Since(start) < setupBudget; i++ {
		p := r.params(i % len(r.seeds))
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := r.w.setup(p); err != nil {
				r.fail("setup: %v", err)
				return samples
			}
		}
		if d := time.Since(t0); d < setupSample {
			batch *= 2
		} else {
			samples = append(samples, d.Seconds()/float64(batch))
		}
	}
	return samples
}

// traced runs pairs of passes over the run's inputs in turn, an untraced pass
// and then a traced one of the same input, for the run's seconds and at
// least one pair. The traced outputs must equal the untraced ones. It reports
// the per-layer metrics and writes the spans.
func (r *childRun) traced() map[string]float64 {
	pr := newProbe()
	var untraced, traced float64
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		k := i % len(r.seeds)
		u, out, ok := r.pass(k, nil)
		if !ok {
			break
		}
		t, _, ok := r.pass(k, pr)
		if !ok {
			break
		}
		untraced += u.wall
		traced += t.wall
		if r.w.traced != nil && r.res.Correct {
			if err := r.w.traced(r.params(k), pr, u.wall, out); err != nil {
				r.fail("seed %d: %v", r.seeds[k], err)
			}
		}
		if !r.more(start, time.Since(t0)) {
			break
		}
	}
	fmt.Fprintf(r.out, "# %s: untraced passes %.4g s, the same inputs traced %.4g s\n", r.w.name, untraced, traced)
	path := r.c.spansPath(r.w.name)
	if err := pr.writeSpans(path); err != nil {
		r.fail("writing spans: %v", err)
	} else {
		fmt.Fprintf(r.out, "# spans: %s (%d)\n", path, len(pr.spans))
	}
	return layerMetrics(pr, untraced, traced)
}

// runChild measures one workload and prints name-value-unit lines and, last,
// the JSON result. -trace 0 reports the end-to-end metrics, -trace 1 the
// per-layer ones.
func runChild(c config, stdout, stderr io.Writer) int {
	g, err := loadGolden(c.golden)
	if err != nil {
		fmt.Fprintf(stderr, "dtlbench: %v\n", err)
		return 1
	}
	w, _ := workloadByName(c.workload)
	r := &childRun{c: c, w: w, seeds: w.seeds(c.seed), golden: g, out: stdout,
		res: result{Correct: true, Metrics: map[string]metricValue{}}, ref: map[int64]outputs{}}
	fmt.Fprintf(stdout, "# %s -seed %d simulates seeds %v\n", w.name, c.seed, r.seeds)

	measured, defs := map[string]float64(nil), endToEnd
	if c.trace == 0 {
		measured = r.untraced()
	} else {
		measured, defs = r.traced(), perLayer
	}
	fmt.Fprintf(stdout, "# golden: %d inputs match, %d have no entry\n", r.matched, r.unpinned)
	if r.mismatch {
		r.res.Failed = r.res.Attempted // a golden mismatch fails every operation
	}
	for _, d := range defs {
		v, ok := measured[d.Name]
		if ok {
			fmt.Fprintf(stdout, "%s %g %s\n", d.Name, v, d.Unit)
		}
		r.res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(stdout, string(b))
	if !r.res.Correct {
		return 1
	}
	return 0
}

// layerMetrics turns a traced run's timers, samples and counters into the
// per-layer metrics the run measured; the rest are reported as 0. untraced
// and traced are the summed seconds of the paired passes.
func layerMetrics(pr *probe, untraced, traced float64) map[string]float64 {
	perAccess := [numLayers]string{"trace.next_ns", "dram.codec_ns", "memctrl.access_ns", "core.access_ns"}
	m := map[string]float64{}
	if pr.accesses > 0 {
		m["accesses_per_s"] = float64(pr.accesses) / untraced
		for l, name := range layerNames {
			if pr.busy[l] == 0 {
				continue
			}
			m[name+".share"] = pr.busy[l].Seconds() / pr.loop.Seconds()
			m[perAccess[l]] = float64(pr.busy[l].Nanoseconds()) / float64(pr.accesses)
		}
	}
	if n := len(pr.migrating) + len(pr.idle); n > 0 {
		m["core.access_migrating_p50_ns"] = percentile(pr.migrating, 0.50)
		m["core.access_migrating_p99_ns"] = percentile(pr.migrating, 0.99)
		m["core.access_idle_p50_ns"] = percentile(pr.idle, 0.50)
		m["core.access_idle_p99_ns"] = percentile(pr.idle, 0.99)
		m["core.access_migrating_samples"] = float64(len(pr.migrating))
		m["core.access_idle_samples"] = float64(len(pr.idle))
		m["core.migrating_frac"] = float64(len(pr.migrating)) / float64(n)
		m["core.inflight_mean"] = float64(pr.inflight) / float64(n)
	}
	for name, vs := range pr.records {
		m[name] = median(vs)
	}
	for id, ds := range pr.runners {
		name := "experiments." + id + ".wall_s"
		if metricUnit(name) == "" {
			name = "experiments.other.wall_s"
		}
		m[name] += median(seconds(ds))
	}
	m["bench.trace_overhead_frac"] = traced/untraced - 1
	return m
}

// orchestrate runs every (rep, workload) in a fresh child process of this
// binary, alternating the workload order between reps, then with -trace 1
// one traced child per workload. It prints each metric's median, quartiles
// and sample count, then one JSON line per workload.
func orchestrate(c config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "dtlbench: %v\n", err)
		return 1
	}
	// A signal kills the running child (CommandContext) before we exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type summary struct {
		values    map[string][]float64
		attempted int64
		failed    int64
		correct   bool
	}
	sums := map[string]*summary{}
	for _, w := range c.workloads {
		sums[w] = &summary{values: map[string][]float64{}, correct: true}
	}
	code := 0
	child := func(w string, trace int) {
		if ctx.Err() != nil {
			code = 1
			return
		}
		args := []string{"-workload", w, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
			"-trace", fmt.Sprint(trace), "-golden", c.golden, "-workdir", c.workdir}
		if trace == 1 && len(c.workloads) == 1 {
			args = append(args, "-spans", c.spansPath(w))
		}
		fmt.Fprintf(stdout, "# == %s seed %d trace %d\n", w, c.seed, trace)
		res, err := runProcess(ctx, self, args, stdout, stderr)
		s := sums[w]
		if err != nil {
			fmt.Fprintf(stderr, "dtlbench: %s: %v\n", w, err)
			code, s.correct = 1, false
		}
		if res == nil {
			return
		}
		s.correct = s.correct && res.Correct
		s.attempted += res.Attempted
		s.failed += res.Failed
		for name, v := range res.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
	}
	for rep := 0; rep < c.reps; rep++ {
		order := slices.Clone(c.workloads)
		if rep%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			child(w, 0)
		}
	}
	if c.trace == 1 {
		for _, w := range c.workloads {
			child(w, 1)
		}
	}

	for _, w := range c.workloads {
		s := sums[w]
		fmt.Fprintf(stdout, "# == %s: median unit, quartiles, n\n", w)
		res := struct {
			Workload string `json:"workload"`
			result
		}{w, result{Correct: s.correct, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}}
		for _, d := range append(slices.Clone(endToEnd), perLayer...) {
			vs, ok := s.values[d.Name]
			if !ok {
				continue
			}
			q1, med, q3 := quartiles(vs)
			res.Metrics[d.Name] = metricValue{Value: med, Unit: d.Unit}
			if med != 0 { // layers the workload does not drive read 0
				fmt.Fprintf(stdout, "%s %g %s q1 %g q3 %g n %d\n", d.Name, med, d.Unit, q1, q3, len(vs))
			}
		}
		if !s.correct {
			code = 1
		}
		b, err := json.Marshal(res)
		if err != nil {
			panic(err)
		}
		fmt.Fprintln(stdout, string(b))
	}
	return code
}

// runProcess runs the binary, copies its output through, and parses the
// JSON result from its last line.
func runProcess(ctx context.Context, bin string, args []string, stdout, stderr io.Writer) (*result, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %v (exit: %v)", err, waitErr)
	}
	if scanErr != nil {
		return &res, scanErr
	}
	return &res, waitErr
}
