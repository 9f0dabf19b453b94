// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated substrate. Each runner prints the
// same rows/series the paper reports and returns the headline numbers so
// tests and EXPERIMENTS.md can compare shapes against the paper's claims.
//
// Absolute numbers differ from the paper (the substrate is a simulator, not
// the authors' Xeon testbed); the reproduced quantities are the shapes: who
// wins, by roughly what factor, and where behavior changes regime.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// Options control experiment scale.
type Options struct {
	// Quick shrinks trace lengths and device sizes for smoke tests and
	// benchmarks; full runs reproduce the paper-scale sweeps.
	Quick bool
	// Seed drives every random choice; fixed default for reproducibility.
	Seed int64
	// Out receives the human-readable report; nil discards it.
	Out io.Writer
	// CSVDir, when non-empty, receives plot-ready CSV series for the
	// experiments that produce them (fig1 timeline, fig9 distributions,
	// fig12 power timeline, fig14 savings).
	CSVDir string
	// TracePath, when non-empty, receives a trace of the run's per-rank
	// power timeline and structured events, encoded per TraceFormat. Honored by the experiments that drive
	// a DTL device: fig12/fig13 (power-down schedule), fig14 (headline
	// self-refresh configuration), and fig9 (which then also replays its
	// mix through a DTL to capture the SMC behavior behind the strides).
	TracePath string
	// TraceFormat selects the TracePath encoding. The run always streams
	// every record as JSONL as it progresses; FormatJSONL streams straight
	// to TracePath, so a killed run still leaves a complete prefix on disk.
	// FormatChrome (the default; trace_event JSON to open in Perfetto or
	// chrome://tracing) and FormatCSV stream to a temp file beside
	// TracePath, converted to TracePath at finish by telemetry.ConvertJSONL.
	TraceFormat telemetry.TraceFormat
	// MetricsPath, when non-empty, receives the sampled metrics registry as
	// CSV (one row per sample, one column per metric).
	MetricsPath string
	// LedgerPath, when non-empty, receives the attribution cost ledger as
	// JSON (telemetry.LedgerSnapshot): every nanosecond of added latency
	// and every unit of the energy proxy charged to a (vm, rank, cause)
	// triple. Honored by the same experiments that honor TracePath; the
	// ledger is also attached (and dumped into the trace at finish)
	// whenever a trace or watch channel is active.
	LedgerPath string
	// Watch, when non-nil, receives periodic WatchSnapshots from experiments
	// that drive a DTL device, at the metrics sampling cadence. Create it
	// with capacity 1: the publisher coalesces (replaces a stale undelivered
	// snapshot) instead of blocking, so watching never perturbs the run. The
	// caller owns the channel and must keep draining it until the runner
	// returns; experiments never close it.
	Watch chan WatchSnapshot
	// SamplePeriod is the virtual-time metrics sampling period; 0 picks a
	// per-experiment default matched to the run's horizon.
	SamplePeriod sim.Time
	// FaultSpec, when non-empty, attaches a deterministic fault-injection
	// process (internal/fault grammar) to the experiments that drive a DTL
	// device over the 6-hour schedule (fig12/fig13/faults). Allocation
	// failures under injected faults shed load instead of aborting the run.
	FaultSpec string
	// Parallel bounds the worker fan-out inside sweep experiments (each
	// sweep point builds an independent device); <= 1 runs points serially.
	// Results and report bytes are identical either way.
	Parallel int
	// Rack is the expander count for the rack experiment: N independent
	// DTL devices composed behind a simulated CXL fabric. 0 picks the
	// default rack size (4); other experiments ignore it.
	Rack int
	// Fabric is the rack fabric cost model and placement policy, the
	// `dtlsim -fabric` grammar (rack.ParseFabric): semicolon-separated
	// key=value terms over hop (per-switch-hop latency), gbs (shared link
	// bandwidth) and policy (spread|pack). Empty picks rack defaults.
	// Only the rack experiment honors it.
	Fabric string
	// Policy carries power-policy overrides for A/B runs compared with
	// `dtlstat diff`: the free-rank-group reserve for the power-down
	// schedule experiments, and the profiling window/threshold and
	// self-refresh enter policy for the hotness engine. It is the parsed
	// form of `dtlsim -policy` and of a served job's `policy` field
	// (ParsePolicy documents the grammar).
	Policy Policy
	// Ctx, when non-nil, bounds the run: the long schedule- and
	// replay-driven experiments poll it at their natural cadence and
	// abandon the run once it is done. RunAll converts the abandonment
	// into a Result with Canceled set rather than letting it propagate as
	// a panic. A nil Ctx (the default) costs nothing.
	Ctx context.Context

	// watchExperiment labels Watch snapshots with the runner id; stamped by
	// RunAll so single-runner invocations need no wiring.
	watchExperiment string
	// srRuns shares self-refresh replays between Fig14 and Fig15 within one
	// RunAll call; nil (a runner called directly) replays every time.
	srRuns *srMemo
}

// canceledPanic carries the context error from an experiment's run loop up
// to RunAll, which turns it into a canceled Result.
type canceledPanic struct{ err error }

// checkCanceled aborts the run (via panic, recovered in RunAll) when the
// run's context is done. Experiments with long loops call it at their
// natural polling cadence; with a nil Ctx it is a no-op.
func (o Options) checkCanceled() {
	if o.Ctx == nil {
		return
	}
	select {
	case <-o.Ctx.Done():
		panic(canceledPanic{o.Ctx.Err()})
	default:
	}
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// scaled picks between a full and quick value.
func (o Options) scaled(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Result is the machine-readable outcome of one experiment.
type Result struct {
	ID         string
	Title      string
	PaperClaim string
	// Metrics holds the headline numbers keyed by a short name.
	Metrics map[string]float64
	// Canceled marks a run abandoned because Options.Ctx was done before it
	// finished; Err carries the context error. Metrics of a canceled run
	// are empty.
	Canceled bool   `json:"Canceled,omitempty"`
	Err      string `json:"Err,omitempty"`
}

func newResult(id, title, claim string) Result {
	return Result{ID: id, Title: title, PaperClaim: claim, Metrics: map[string]float64{}}
}

// header prints the standard experiment banner.
func (r Result) header(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", r.ID, r.Title)
	fmt.Fprintf(w, "paper: %s\n\n", r.PaperClaim)
}

// footer prints the metric summary.
func (r Result) footer(w io.Writer) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "measured %-32s %.4g\n", k, r.Metrics[k])
	}
}

// Runner is a registered experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Options) Result
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"fig1", "Azure VM memory usage over 6 hours", Fig1},
		{"fig2", "Performance vs active ranks per channel", Fig2},
		{"fig5", "Rank-interleaving cost, local vs CXL latency", Fig5},
		{"fig6", "DPA bit mapping for the 1TB device", Fig6},
		{"fig9", "Post-cache memory access stride distribution", Fig9},
		{"fig10", "Segment size vs cold-segment share", Fig10},
		{"fig11", "DRAM background and active power model", Fig11},
		{"fig12", "Rank-level power-down over the 6-hour schedule", Fig12},
		{"fig13", "DRAM power breakdown", Fig13},
		{"fig14", "Hotness-aware self-refresh savings", Fig14},
		{"fig15", "Total energy savings, both techniques", Fig15},
		{"table2", "Normalized power per DRAM state", Table2},
		{"table4", "Memory accesses per kilo-instruction", Table4},
		{"table5", "Metadata structure sizes, 384GB vs 4TB", Table5},
		{"table6", "Controller power and area at 7nm", Table6},
		{"amat", "CXL access latency with DTL translation (§6.1)", AMAT},
		{"abl-segsize", "Ablation: segment size (§4.1)", AblationSegmentSize},
		{"abl-smc", "Ablation: segment mapping cache sizing (§3.2)", AblationSMC},
		{"abl-threshold", "Ablation: profiling idle threshold (§3.4)", AblationProfilingThreshold},
		{"abl-tsp", "Ablation: TSP walk budget (§3.4)", AblationTSPTimeout},
		{"abl-rankgroup", "Ablation: rank-group vs per-rank power-down (§3.3)", AblationRankGroup},
		{"faults", "Reliability loop under injected ECC storms and rank failure", Faults},
		{"rack", "Rack-scale fabric: pack vs spread placement over N expanders", Rack},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// executionTime converts a replayed trace into wall-clock terms: a fixed
// per-instruction pipeline cost plus exposed memory latency per post-cache
// access. The paper's CloudSuite mixes are moderately memory-bound; 0.5 ns
// per instruction (2 GHz, IPC 1) is the reference point.
func executionTime(instructions int64, accesses int64, meanLatNs float64) float64 {
	const nsPerInstr = 0.5
	return float64(instructions)*nsPerInstr + float64(accesses)*meanLatNs
}

// csvFile opens <CSVDir>/<name>.csv for a series dump, or returns nil when
// CSV export is off. Callers must Close the returned file.
func (o Options) csvFile(name string) *os.File {
	if o.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.CSVDir, 0o755); err != nil {
		return nil
	}
	f, err := os.Create(filepath.Join(o.CSVDir, name+".csv"))
	if err != nil {
		return nil
	}
	return f
}

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// nsT converts a float of nanoseconds for printing.
func nsT(ns float64) string { return fmt.Sprintf("%.1fns", ns) }
