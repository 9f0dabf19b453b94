package main

// dtlstat top: render the attribution cost ledger as sorted breakdown
// tables — "where did my latency and energy go, and who pays for it?".
// The input is either a ledger JSON artifact (dtlsim -ledger) or any trace
// carrying the finish-time ledger dump; the two agree because both come from
// the same Ledger.Snapshot.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"

	"dtl/internal/metrics"
	"dtl/internal/telemetry"
)

// topGroup is one aggregation bucket (a cause, a VM, or a rank).
type topGroup struct {
	Key    string  `json:"key"`
	LatNs  int64   `json:"lat_ns"`
	Energy float64 `json:"energy"`
}

// topReport is the -json shape: the raw snapshot plus the three groupings
// the text tables render. Cause names appear verbatim, so CI can grep for
// e.g. "fault-retry" in the output.
type topReport struct {
	Source      string                  `json:"source"`
	TotalLatNs  int64                   `json:"total_lat_ns"`
	TotalEnergy float64                 `json:"total_energy"`
	ByCause     []topGroup              `json:"by_cause"`
	ByVM        []topGroup              `json:"by_vm"`
	ByRank      []topGroup              `json:"by_rank"`
	Entries     []telemetry.LedgerEntry `json:"entries"`
}

// cmdTop renders per-cause / per-VM / per-rank attribution breakdowns.
func cmdTop(args []string) int {
	fs := flag.NewFlagSet("dtlstat top", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the breakdown as JSON instead of tables")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dtlstat top [-json] <ledger.json | trace>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	snap, err := loadLedger(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	if len(snap.Entries) == 0 {
		fmt.Fprintf(os.Stderr, "dtlstat: %s: no attribution records — run dtlsim with -ledger (or -trace) to record the cost ledger\n", fs.Arg(0))
		return 1
	}

	rep := buildTopReport(fs.Arg(0), snap)

	if *jsonOut {
		if err := printJSON(rep); err != nil {
			return fail(err)
		}
		return 0
	}

	fmt.Printf("attribution ledger: %s\n", rep.Source)
	fmt.Printf("total: %d ns latency, %.6g energy (power-weight x ns)\n\n", rep.TotalLatNs, rep.TotalEnergy)
	renderTopTable("by cause", "cause", rep.ByCause, rep.TotalLatNs, rep.TotalEnergy)
	renderTopTable("by VM", "vm", rep.ByVM, rep.TotalLatNs, rep.TotalEnergy)
	renderTopTable("by rank", "rank", rep.ByRank, rep.TotalLatNs, rep.TotalEnergy)
	return 0
}

// loadLedger sniffs path: a ledger JSON artifact is parsed directly, anything
// else is summarized as a trace and the ledger dump is folded back out of it.
func loadLedger(path string) (*telemetry.LedgerSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// The artifact is MarshalIndent output, so its totals key sits in the
	// first few bytes; no trace format ever contains it.
	head := data
	if len(head) > 256 {
		head = head[:256]
	}
	if bytes.Contains(head, []byte(`"total_lat_ns"`)) {
		snap, err := telemetry.ParseLedgerSnapshot(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return snap, nil
	}
	s, err := loadSummary(path)
	if err != nil {
		return nil, err
	}
	snap := &telemetry.LedgerSnapshot{Entries: s.Attribution}
	for _, e := range s.Attribution {
		snap.TotalLatNs += e.LatNs
		snap.TotalEnergy += e.Energy
	}
	return snap, nil
}

// buildTopReport folds the snapshot's entries into the three groupings,
// each sorted by descending latency (energy, then key, as tiebreaks).
func buildTopReport(source string, snap *telemetry.LedgerSnapshot) *topReport {
	rep := &topReport{
		Source:      source,
		TotalLatNs:  snap.TotalLatNs,
		TotalEnergy: snap.TotalEnergy,
		Entries:     snap.Entries,
	}
	byCause := map[string]*topGroup{}
	byVM := map[string]*topGroup{}
	byRank := map[string]*topGroup{}
	for _, e := range snap.Entries {
		accumulate(byCause, e.Cause, e)
		accumulate(byVM, vmLabel(e.VM), e)
		accumulate(byRank, rankLabel(e.Rank), e)
	}
	rep.ByCause = sortGroups(byCause)
	rep.ByVM = sortGroups(byVM)
	rep.ByRank = sortGroups(byRank)
	return rep
}

func accumulate(m map[string]*topGroup, key string, e telemetry.LedgerEntry) {
	g := m[key]
	if g == nil {
		g = &topGroup{Key: key}
		m[key] = g
	}
	g.LatNs += e.LatNs
	g.Energy += e.Energy
}

func sortGroups(m map[string]*topGroup) []topGroup {
	out := make([]topGroup, 0, len(m))
	for _, g := range m {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.LatNs != b.LatNs {
			return a.LatNs > b.LatNs
		}
		if a.Energy != b.Energy {
			return a.Energy > b.Energy
		}
		return a.Key < b.Key
	})
	return out
}

// vmLabel renders a VM id; the SystemVM pseudo-tenant gets a name.
func vmLabel(vm int64) string {
	if vm == telemetry.SystemVM {
		return "system"
	}
	return fmt.Sprintf("vm%d", vm)
}

// rankLabel renders a global rank id; -1 means not rank-scoped.
func rankLabel(rank int) string {
	if rank < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", rank)
}

func renderTopTable(title, keyName string, groups []topGroup, totLat int64, totEnergy float64) {
	fmt.Println(title + ":")
	tab := metrics.NewTable(keyName, "lat_ns", "lat_share", "energy", "energy_share")
	for _, g := range groups {
		tab.AddRow(g.Key,
			fmt.Sprintf("%d", g.LatNs), sharePct(float64(g.LatNs), float64(totLat)),
			fmt.Sprintf("%.6g", g.Energy), sharePct(g.Energy, totEnergy))
	}
	tab.Render(os.Stdout)
	fmt.Println()
}
