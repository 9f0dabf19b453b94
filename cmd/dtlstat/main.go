// Command dtlstat summarizes and compares traces produced by dtlsim -trace
// -trace-format jsonl: per-rank residency in each power state,
// migration-latency percentiles, the background-energy proxy,
// attribution-ledger breakdowns, and counts of the remaining instrumented
// events. It reads the JSONL stream only; a chrome or csv trace is an
// export converted from that stream, and handing one to read, diff or top
// fails with a hint to rerun with -trace-format jsonl. `top` additionally
// accepts the ledger JSON written by dtlsim -ledger, and `convert` derives
// the chrome and csv exports from a JSONL trace.
//
// Usage:
//
//	dtlstat read trace.jsonl
//	dtlstat read -json trace.jsonl                       # machine-readable summary
//	dtlstat read -check RESIDENCY_seed.json trace.jsonl  # CI residency gate
//	dtlstat read -expanders 4 rack.jsonl                 # per-expander residency of a rack trace
//	dtlstat top ledger.json                              # where did my energy go?
//	dtlstat top -json trace.jsonl
//	dtlstat diff baseline.jsonl candidate.jsonl
//	dtlstat diff -share 0.05 -lat 0.25 -energy 0.10 -attr 0.25 a.jsonl b.jsonl
//	dtlstat convert -to chrome trace.jsonl trace.json    # open in Perfetto
//	dtlstat convert -to csv trace.jsonl trace.csv
//	dtlstat jobs -addr 127.0.0.1:8080 -state running     # live dtlserved fleet
//	dtlstat timeline timeline.json                       # where did my wall-clock go?
//	dtlstat timeline -check stage=queued,p99<100ms timeline.json
//
// `read` renders one trace's summary. -check compares the device-wide
// residency share of each power state against a tolerance band (JSON:
// {"states": {"mpsm": {"share": 0.4, "tol": 0.1}, ...}}) and exits nonzero
// on a violation, so CI can catch power-behavior regressions the unit suite
// is too coarse to see. -expanders N folds a rack trace's rack-global rank
// axis (dtlsim -exp rack) back into N per-expander residency rows, showing
// which expanders the placement policy kept awake; it refuses traces whose
// channel count N does not divide.
//
// `top` renders the attribution cost ledger — every nanosecond of latency
// and every unit of the energy proxy charged to a (vm, rank, cause) triple —
// as sorted per-cause, per-VM and per-rank breakdown tables. It accepts
// either a ledger JSON file (dtlsim -ledger) or any trace that carries the
// finish-time ledger dump.
//
// `diff` compares a baseline run A against a candidate B: per-state residency
// share deltas (aggregate and worst rank), migration-latency percentile
// shifts, the energy-proxy drift, and per-cause attribution shifts. With no
// tolerance flags it only reports; setting -share/-lat/-energy/-attr turns
// the corresponding check into a gate that exits nonzero when the candidate
// leaves the band (a rank-set mismatch always fails). Two runs of the same
// dtlsim configuration are byte-deterministic, so `dtlstat diff -share 1e-9`
// of a repeated run is a meaningful CI identity check.
//
// `convert` writes the Chrome trace_event JSON or events CSV of a JSONL
// trace: byte for byte the file dtlsim writes for the same run under
// -trace-format chrome or csv.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"dtl/internal/dram"
	"dtl/internal/metrics"
	"dtl/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches args to a subcommand and returns the exit status. Anything
// else, a bare trace path or flag included, prints usage and exits 2.
func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "read":
		return cmdRead(args[1:])
	case "diff":
		return cmdDiff(args[1:])
	case "top":
		return cmdTop(args[1:])
	case "convert":
		return cmdConvert(args[1:])
	case "jobs":
		return cmdJobs(args[1:])
	case "timeline":
		return cmdTimeline(args[1:])
	case "help", "-h", "-help", "--help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "dtlstat: unknown command %q\n", args[0])
	usage()
	return 2
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dtlstat read [-json] [-check band.json] [-expanders N] <trace>
  dtlstat top [-json] <ledger.json | trace>
  dtlstat diff [-json] [-share S] [-lat L] [-energy E] [-attr A] <traceA> <traceB>
  dtlstat convert -to chrome|csv <trace.jsonl> <out>
  dtlstat jobs [-addr host:port] [-state S] [-json]
  dtlstat timeline [-json] [-check stage=queued,p99<100ms]... <timeline.json>
  dtlstat timeline [-json] [-check ...] -addr host:port -job j000001

Traces are JSONL (dtlsim -trace-format jsonl); 'convert' derives the chrome
and csv exports from one. 'top' also accepts the attribution ledger JSON
written by dtlsim -ledger.
'jobs' and 'timeline' talk to a live dtlserved; 'timeline' also reads the
timeline.json artifact every finished job carries.`)
}

// fail reports err on stderr and returns exit status 1.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dtlstat:", err)
	return 1
}

// printJSON writes v to stdout as indented JSON.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// loadSummary opens and summarizes one JSONL trace file. Empty,
// mid-record-truncated and exported (chrome, csv) traces get distinct,
// actionable messages (the telemetry errors carry the line/offset of a cut).
func loadSummary(path string) (*telemetry.TraceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := telemetry.SummarizeJSONL(f)
	switch {
	case errors.Is(err, telemetry.ErrEmptyTrace):
		return nil, fmt.Errorf("%s: %w — was the run interrupted before any record was written?", path, err)
	case errors.Is(err, telemetry.ErrTruncatedTrace):
		return nil, fmt.Errorf("%s: %w — the writer was likely killed mid-run; the records before the cut are intact", path, err)
	case err != nil:
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// cmdConvert writes the chrome or csv export of a JSONL trace.
func cmdConvert(args []string) int {
	fs := flag.NewFlagSet("dtlstat convert", flag.ExitOnError)
	to := fs.String("to", "", "output encoding: chrome or csv")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dtlstat convert -to chrome|csv <trace.jsonl> <out>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	format, err := telemetry.ParseTraceFormat(*to)
	if *to == "" || err != nil || format == telemetry.FormatJSONL || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	if err := telemetry.ConvertTraceFile(fs.Arg(0), fs.Arg(1), format); err != nil {
		fmt.Fprintf(os.Stderr, "dtlstat: %s: %v\n", fs.Arg(0), err)
		return 1
	}
	return 0
}

// cmdRead renders one trace's summary, optionally gated by a residency band.
func cmdRead(args []string) int {
	fs := flag.NewFlagSet("dtlstat read", flag.ExitOnError)
	check := fs.String("check", "", "residency band JSON; exit nonzero if any state's aggregate share leaves its band")
	jsonOut := fs.Bool("json", false, "emit the summary as JSON instead of tables")
	expanders := fs.Int("expanders", 0, "fold the rack-global rank axis of a rack trace into N per-expander residency rows (0 = off)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dtlstat read [-json] [-check band.json] [-expanders N] <trace>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	s, err := loadSummary(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	if len(s.Residency) == 0 {
		fmt.Fprintln(os.Stderr, "dtlstat: no power spans in trace")
		return 1
	}

	if *expanders < 0 {
		fmt.Fprintf(os.Stderr, "dtlstat: -expanders %d: want a positive count\n", *expanders)
		return 2
	}
	rep, err := buildReadReport(s, *expanders)
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		if err := printJSON(rep); err != nil {
			return fail(err)
		}
	} else {
		rep.render(os.Stdout)
	}
	if *check == "" {
		return 0
	}
	if err := checkBand(*check, rep.all.fold); err != nil {
		return fail(err)
	}
	if !*jsonOut {
		fmt.Printf("\nresidency band check against %s: PASS\n", *check)
	}
	return 0
}

// readReport is one trace's `read` summary: the -json shape, and what the
// text tables render.
type readReport struct {
	Ranks       []rankResidency         `json:"ranks"`
	Aggregate   map[string]float64      `json:"aggregate_shares"`
	Expanders   []expanderResidency     `json:"expanders,omitempty"`
	Migrations  int                     `json:"migrations"`
	LatencyUs   *metrics.Summary        `json:"migration_latency_us,omitempty"`
	Reasons     map[string]int          `json:"migration_reasons,omitempty"`
	EnergyProxy float64                 `json:"energy_proxy"`
	Events      map[string]int          `json:"events,omitempty"`
	Attribution []telemetry.LedgerEntry `json:"attribution,omitempty"`

	states []string  // residency columns, stateColumns order
	all    residency // the device-wide fold behind Aggregate
}

// residency is one fold of residency (a rank, an expander or the device)
// as it is printed: its total in seconds and each state's share.
type residency struct {
	TotalS float64            `json:"total_s"`
	Shares map[string]float64 `json:"shares"`

	fold telemetry.StateTime
}

// newResidency keeps fold and its shares of states.
func newResidency(fold telemetry.StateTime, states []string) residency {
	return residency{TotalS: fold.Total / 1e6, Shares: fold.Shares(states), fold: fold}
}

// rankResidency is one rank's residency.
type rankResidency struct {
	Rank  int    `json:"rank"`
	Label string `json:"label"`
	residency
}

// expanderResidency is one expander's fold of the rack-global rank axis.
type expanderResidency struct {
	Expander int `json:"expander"`
	Ranks    int `json:"ranks"`
	residency
}

// buildReadReport summarizes s for `read`, with one row per expander when
// expanders > 0.
func buildReadReport(s *telemetry.TraceSummary, expanders int) (*readReport, error) {
	ranks := s.Ranks()
	states := stateColumns(s)
	rep := &readReport{
		Migrations:  len(s.MigrationsUs),
		Reasons:     s.MigrationReasons,
		EnergyProxy: s.EnergyProxy(),
		Events:      s.Points,
		Attribution: s.Attribution,
		states:      states,
		all:         newResidency(s.Fold(ranks...), states),
	}
	rep.Aggregate = rep.all.Shares
	for _, rank := range ranks {
		rep.Ranks = append(rep.Ranks, rankResidency{rank, s.RankLabel(rank), newResidency(s.Fold(rank), states)})
	}
	if expanders > 0 {
		var err error
		if rep.Expanders, err = splitByExpander(s, ranks, states, expanders); err != nil {
			return nil, err
		}
	}
	if len(s.MigrationsUs) > 0 {
		sum := metrics.Summarize(s.MigrationsUs)
		rep.LatencyUs = &sum
	}
	return rep, nil
}

// render writes the report as text tables.
func (rep *readReport) render(w io.Writer) {
	fmt.Fprintf(w, "power-state residency (%d ranks, run %.3f s)\n\n", len(rep.Ranks), rep.Ranks[0].TotalS)
	tab := metrics.NewTable(append(append([]string{"rank"}, rep.states...), "total_s")...)
	for _, r := range rep.Ranks {
		tab.AddRow(r.row(rep.states, r.Label)...)
	}
	tab.AddRow(rep.all.row(rep.states, "ALL")...)
	tab.Render(w)

	if len(rep.Expanders) > 0 {
		fmt.Fprintf(w, "\nper-expander residency (%d expanders):\n", len(rep.Expanders))
		etab := metrics.NewTable(append(append([]string{"expander", "ranks"}, rep.states...), "total_s")...)
		for _, er := range rep.Expanders {
			etab.AddRow(er.row(rep.states, fmt.Sprintf("x%d", er.Expander), fmt.Sprintf("%d", er.Ranks))...)
		}
		etab.Render(w)
	}

	fmt.Fprintf(w, "\nmigrations: %d", rep.Migrations)
	if sum := rep.LatencyUs; sum != nil {
		fmt.Fprintf(w, "  latency us: P50 %.1f  P95 %.1f  P99 %.1f  max %.1f",
			sum.P50, sum.P95, sum.P99, sum.Max)
	}
	fmt.Fprintln(w)
	for _, r := range sortedKeys(rep.Reasons) {
		fmt.Fprintf(w, "  %-18s %d\n", r, rep.Reasons[r])
	}

	pm := dram.DefaultPowerModel()
	fmt.Fprintf(w, "\nenergy proxy: %s (weight x us,", fmtEnergy(rep.EnergyProxy))
	for s := dram.Standby; s <= dram.MPSM; s++ {
		fmt.Fprintf(w, " %s=%s", s, dram.FormatPower(pm.Background(s)))
	}
	fmt.Fprintln(w, ")")

	if len(rep.Events) > 0 {
		fmt.Fprintln(w, "\nevents:")
		for _, n := range sortedKeys(rep.Events) {
			fmt.Fprintf(w, "  %-18s %d\n", n, rep.Events[n])
		}
	}
}

// row renders r as a table row: the key cells, each state's share ("0%"
// for a state never entered), and the total in seconds.
func (r residency) row(states []string, keys ...string) []string {
	cells := keys
	for _, st := range states {
		if us := r.fold.Us[st]; us == 0 && r.fold.Total > 0 {
			cells = append(cells, "0%")
		} else {
			cells = append(cells, sharePct(us, r.fold.Total))
		}
	}
	return append(cells, fmt.Sprintf("%.3f", r.TotalS))
}

// sharePct renders part as a percentage of total, "-" when total is not
// positive.
func sharePct(part, total float64) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*part/total)
}

// sortedKeys lists a map's keys in order, for stable rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtEnergy prints an energy-proxy value to six significant digits, as
// `top` does, for small traces (units) and full-scale ones (1e6 and up)
// alike. Six digits resolve any two values whose shift prints nonzero at
// diff's 0.01% resolution, so a nonzero delta never sits beside two
// equal-looking values.
func fmtEnergy(v float64) string { return fmt.Sprintf("%.6g", v) }

// cmdDiff compares a baseline trace A against a candidate B.
func cmdDiff(args []string) int {
	fs := flag.NewFlagSet("dtlstat diff", flag.ExitOnError)
	share := fs.Float64("share", 0, "max absolute residency-share drift per state, aggregate and per-rank (0 = report only)")
	lat := fs.Float64("lat", 0, "max relative migration-latency percentile shift, e.g. 0.25 = 25% (0 = report only)")
	energy := fs.Float64("energy", 0, "max relative energy-proxy drift (0 = report only)")
	attr := fs.Float64("attr", 0, "max relative per-cause attribution shift, latency and energy (0 = report only)")
	jsonOut := fs.Bool("json", false, "emit the diff and verdict as JSON instead of tables")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dtlstat diff [-json] [-share S] [-lat L] [-energy E] [-attr A] <traceA> <traceB>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	a, err := loadSummary(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := loadSummary(fs.Arg(1))
	if err != nil {
		return fail(err)
	}

	d := telemetry.DiffSummaries(a, b)
	tol := telemetry.DiffTolerance{Share: *share, LatFrac: *lat, EnergyFrac: *energy, AttrFrac: *attr}
	gated := tol.Share > 0 || tol.LatFrac > 0 || tol.EnergyFrac > 0 || tol.AttrFrac > 0
	bad := d.Check(tol)

	if *jsonOut {
		wrapper := struct {
			A          string                 `json:"a"`
			B          string                 `json:"b"`
			Diff       *telemetry.SummaryDiff `json:"diff"`
			Violations []string               `json:"violations"`
			Pass       bool                   `json:"pass"`
		}{fs.Arg(0), fs.Arg(1), d, bad, len(bad) == 0}
		if wrapper.Violations == nil {
			wrapper.Violations = []string{}
		}
		if err := printJSON(wrapper); err != nil {
			return fail(err)
		}
		if len(bad) > 0 {
			return 1
		}
		return 0
	}

	fmt.Printf("diff: A=%s  B=%s\n\n", fs.Arg(0), fs.Arg(1))

	tab := metrics.NewTable("state", "share_A", "share_B", "delta_pp", "worst_rank", "rank_delta_pp")
	for _, sh := range d.Aggregate {
		worst := "-"
		worstDelta := "-"
		if rd, w, ok := d.WorstRankShare(sh.State); ok {
			worst = rd.Label
			worstDelta = fmt.Sprintf("%+.2f", 100*w.Delta())
		}
		tab.AddRow(sh.State,
			fmt.Sprintf("%.1f%%", 100*sh.A), fmt.Sprintf("%.1f%%", 100*sh.B),
			fmt.Sprintf("%+.2f", 100*sh.Delta()), worst, worstDelta)
	}
	tab.Render(os.Stdout)

	if len(d.RanksOnlyA) > 0 || len(d.RanksOnlyB) > 0 {
		fmt.Printf("\nrank sets differ: %d ranks only in A, %d only in B\n",
			len(d.RanksOnlyA), len(d.RanksOnlyB))
	}

	fmt.Printf("\nmigrations: A %d  B %d\n", d.MigrationsA, d.MigrationsB)
	for _, p := range d.Percentiles {
		fmt.Printf("  %-4s %8.1f us -> %8.1f us  (%+.1f%%)\n", p.Name, p.A, p.B, 100*p.Shift())
	}
	fmt.Printf("energy proxy: A %s  B %s  (%+.2f%%)\n", fmtEnergy(d.EnergyA), fmtEnergy(d.EnergyB), 100*d.EnergyDelta())

	if len(d.Causes) > 0 {
		fmt.Println("\nattribution (per cause):")
		ctab := metrics.NewTable("cause", "lat_A_ns", "lat_B_ns", "lat_shift", "energy_A", "energy_B", "energy_shift")
		for _, c := range d.Causes {
			ctab.AddRow(c.Cause,
				fmt.Sprintf("%d", c.LatA), fmt.Sprintf("%d", c.LatB),
				fmt.Sprintf("%+.1f%%", 100*c.LatShift()),
				fmtEnergy(c.EnergyA), fmtEnergy(c.EnergyB),
				fmt.Sprintf("%+.1f%%", 100*c.EnergyShift()))
		}
		ctab.Render(os.Stdout)
	}

	if len(d.Points) > 0 {
		fmt.Println("events:")
		for _, n := range sortedKeys(d.Points) {
			c := d.Points[n]
			fmt.Printf("  %-18s A %-8d B %-8d (%+d)\n", n, c[0], c[1], c[1]-c[0])
		}
	}

	if len(bad) > 0 {
		fmt.Println()
		for _, v := range bad {
			fmt.Fprintln(os.Stderr, "dtlstat: FAIL:", v)
		}
		return 1
	}
	if gated {
		fmt.Println("\ntolerance check: PASS")
	}
	return 0
}

// splitByExpander folds a rack trace's ranks into n per-expander rows. Rack
// traces concatenate the expanders' channels (a rank's channel is
// x*chansPerExpander + localChannel), so the owning expander is recovered
// from the "chX/rkY" rank names the trace carries. A channel count n does
// not divide, or a trace without channel-labelled ranks, is a loud error —
// silently folding a single-expander trace would fabricate a rack that never
// ran.
func splitByExpander(s *telemetry.TraceSummary, ranks []int, states []string, n int) ([]expanderResidency, error) {
	chOf := make(map[int]int, len(ranks))
	maxCh := -1
	for _, rank := range ranks {
		var ch, rk int
		if _, err := fmt.Sscanf(s.RankLabel(rank), "ch%d/rk%d", &ch, &rk); err != nil {
			return nil, fmt.Errorf("-expanders: rank %d has label %q, not the chX/rkY form a rack trace records", rank, s.RankLabel(rank))
		}
		chOf[rank] = ch
		if ch > maxCh {
			maxCh = ch
		}
	}
	channels := maxCh + 1
	if channels%n != 0 {
		return nil, fmt.Errorf("-expanders %d does not divide the trace's %d channels", n, channels)
	}
	perExp := channels / n
	members := make([][]int, n)
	for _, rank := range ranks {
		x := chOf[rank] / perExp
		members[x] = append(members[x], rank)
	}
	rows := make([]expanderResidency, n)
	for x, rs := range members {
		rows[x] = expanderResidency{x, len(rs), newResidency(s.Fold(rs...), states)}
	}
	return rows, nil
}

// residencyBand is the tolerance-band file format: the expected device-wide
// share of each power state plus an absolute tolerance.
type residencyBand struct {
	Description string `json:"description,omitempty"`
	Source      string `json:"source,omitempty"`
	States      map[string]struct {
		Share float64 `json:"share"`
		Tol   float64 `json:"tol"`
	} `json:"states"`
}

// checkBand compares the device-wide residency against the band file.
func checkBand(path string, all telemetry.StateTime) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var band residencyBand
	if err := json.Unmarshal(data, &band); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(band.States) == 0 {
		return fmt.Errorf("%s: band has no states", path)
	}
	if all.Total <= 0 {
		return fmt.Errorf("trace has no rank time to check")
	}
	var bad []string
	for _, st := range sortedKeys(band.States) {
		b := band.States[st]
		got := all.Share(st)
		if got < b.Share-b.Tol || got > b.Share+b.Tol {
			bad = append(bad, fmt.Sprintf("%s share %.3f outside %.3f±%.3f", st, got, b.Share, b.Tol))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("residency band violated: %v", bad)
	}
	return nil
}

// stateColumns lists the power states to render: the canonical DRAM states
// in their usual order (always shown, even at zero residency) followed by
// any other state names the trace carries.
func stateColumns(s *telemetry.TraceSummary) []string {
	cols := []string{"standby", "self-refresh", "mpsm"}
	known := map[string]bool{}
	for _, c := range cols {
		known[c] = true
	}
	for _, st := range s.States() {
		if !known[st] {
			cols = append(cols, st)
		}
	}
	return cols
}
