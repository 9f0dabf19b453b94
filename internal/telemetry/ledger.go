package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dtl/internal/sim"
)

// Cause classifies where an attributed cost came from: every nanosecond of
// added latency and every unit of the energy proxy the ledger records is
// charged to exactly one cause, so per-cause costs sum to the ledger totals
// (the conservation property DESIGN.md §12 documents and tests enforce).
type Cause uint8

const (
	// CauseBaseline is the cost any access pays on healthy, awake hardware:
	// the L1 SMC hit plus plain DRAM service latency. For the pseudo-VM
	// SystemVM it also carries the residency-weighted background energy.
	CauseBaseline Cause = iota
	// CauseSMCMissWalk is translation latency beyond the L1 hit: L2 lookups
	// and the full miss-path table walk.
	CauseSMCMissWalk
	// CauseSelfRefreshWake is the self-refresh exit penalty charged to the
	// access that woke the rank.
	CauseSelfRefreshWake
	// CauseDegradedRead is the repair/retry penalty of accessing a failed
	// rank in degraded mode (reads and writes alike).
	CauseDegradedRead
	// CauseMigrationCopy is a background segment copy scheduled by the
	// hotness engine (swap/move traffic).
	CauseMigrationCopy
	// CauseMigrationStall is copy time re-spent because a foreground write
	// aborted or re-queued an in-flight migration (§4.2 protocol).
	CauseMigrationStall
	// CauseDemotionWait is power-down consolidation cost: drain copies into
	// MPSM and the reactivation wake an allocation pays to get ranks back.
	CauseDemotionWait
	// CauseFaultRetry is reliability-loop work: verify-after-copy re-routes,
	// retirement drains, and deferred-retirement backoffs.
	CauseFaultRetry
	// CauseFabricCopy is inter-expander segment copy traffic over the rack
	// fabric: a rack.Allocator migration's bandwidth-shared transfer time and
	// energy (internal/rack).
	CauseFabricCopy
	// CauseFabricStall is fabric latency foreground accesses pay to reach a
	// remote expander: per-hop base cost plus the bandwidth-shared transfer
	// component of a cross-expander access.
	CauseFabricStall
)

// NumCauses is the number of defined causes.
const NumCauses = int(CauseFabricStall) + 1

// String spells the cause the way trace records and dtlstat render it.
func (c Cause) String() string {
	switch c {
	case CauseBaseline:
		return "baseline"
	case CauseSMCMissWalk:
		return "smc-miss-walk"
	case CauseSelfRefreshWake:
		return "self-refresh-wake"
	case CauseDegradedRead:
		return "degraded-read"
	case CauseMigrationCopy:
		return "migration-copy"
	case CauseMigrationStall:
		return "migration-stall"
	case CauseDemotionWait:
		return "demotion-wait"
	case CauseFaultRetry:
		return "fault-retry"
	case CauseFabricCopy:
		return "fabric-copy"
	case CauseFabricStall:
		return "fabric-stall"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// ParseCause maps a cause name back to its code.
func ParseCause(s string) (Cause, bool) {
	for c := Cause(0); int(c) < NumCauses; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// SystemVM is the pseudo-VM charged for costs not attributable to a single
// tenant: background residency energy, health-monitor work, copies of
// already-freed segments.
const SystemVM int64 = -1

// LedgerCell is one accumulated (latency, energy) charge bucket. Latency is
// integer nanoseconds of virtual time; energy is normalized power units ×
// nanoseconds (1000 × the weight-microseconds EnergyProxy reports), the same
// scale the fig12 power math uses.
type LedgerCell struct {
	LatNs  int64   `json:"lat_ns"`
	Energy float64 `json:"energy"`
}

// zero reports whether the cell carries no cost.
func (c LedgerCell) zero() bool { return c.LatNs == 0 && c.Energy == 0 }

// Ledger is the cost ledger of the attribution plane: it charges latency
// and energy-proxy costs to (vm, rank, cause) triples. All methods are
// nil-receiver-safe no-ops, and Charge on an already-charged (vm, rank) is
// allocation-free, so model code can call it unconditionally on the access
// hot path.
//
// The ledger is pure accounting: it never mutates model state, so attaching
// one cannot perturb byte-determinism of a run.
type Ledger struct {
	// ranks is the number of global ranks; each VM gets one cell row per
	// rank it is charged on, plus one row for rank -1 (not rank-scoped).
	ranks int

	// cells maps VM id → one row pointer per rank+1 (slot 0 is rank -1).
	// The pointer slice is allocated on the VM's first charge and a row on
	// the first charge to its rank, so a VM that touches few of a rack's
	// many ranks pays for those rows only.
	cells map[int64][]*[NumCauses]LedgerCell
	// lastVM's row slice is lastRows, so a run of charges to one VM (a
	// drain moves one VM's segments in a row) looks in cells once. Only
	// Charge writes cells, so the memo never goes stale.
	lastVM   int64
	lastRows []*[NumCauses]LedgerCell

	byCause [NumCauses]LedgerCell
	total   LedgerCell
}

// NewLedger builds an empty ledger sized for ranks global ranks.
func NewLedger(ranks int) *Ledger {
	if ranks <= 0 {
		panic(fmt.Sprintf("telemetry: ledger needs at least one rank, got %d", ranks))
	}
	return &Ledger{
		ranks: ranks,
		cells: make(map[int64][]*[NumCauses]LedgerCell),
	}
}

// Charge adds latNs nanoseconds and energy units to (vm, rank, cause).
// rank -1 means not rank-scoped; vm SystemVM means not tenant-scoped.
func (l *Ledger) Charge(vm int64, rank int, cause Cause, latNs int64, energy float64) {
	if l == nil {
		return
	}
	if rank < -1 || rank >= l.ranks {
		panic(fmt.Sprintf("telemetry: ledger charge on rank %d of %d", rank, l.ranks))
	}
	rows := l.lastRows
	if vm != l.lastVM || rows == nil {
		if rows = l.cells[vm]; rows == nil {
			rows = make([]*[NumCauses]LedgerCell, l.ranks+1)
			l.cells[vm] = rows
		}
		l.lastVM, l.lastRows = vm, rows
	}
	row := rows[rank+1]
	if row == nil {
		row = new([NumCauses]LedgerCell)
		rows[rank+1] = row
	}
	c := &row[cause]
	c.LatNs += latNs
	c.Energy += energy
	l.byCause[cause].LatNs += latNs
	l.byCause[cause].Energy += energy
	l.total.LatNs += latNs
	l.total.Energy += energy
}

// Span charges the virtual-time span [start, end] to (vm, rank, cause):
// end - start nanoseconds of latency and the given energy. The ledger
// keeps no span; a traced run records each one through Tracer.AttrSpan.
func (l *Ledger) Span(vm int64, rank int, cause Cause, start, end sim.Time, energy float64) {
	if l == nil {
		return
	}
	if end < start {
		panic(fmt.Sprintf("telemetry: attribution span ends at %v before start %v", end, start))
	}
	l.Charge(vm, rank, cause, int64(end-start), energy)
}

// Total returns the grand-total cell (sum of every charge ever made).
func (l *Ledger) Total() LedgerCell {
	if l == nil {
		return LedgerCell{}
	}
	return l.total
}

// CauseTotals returns the per-cause totals, indexed by Cause.
func (l *Ledger) CauseTotals() [NumCauses]LedgerCell {
	if l == nil {
		return [NumCauses]LedgerCell{}
	}
	return l.byCause
}

// ChargeResidency folds a tracer's power-state residency into the ledger as
// background energy on (SystemVM, rank, baseline): the state's Table 2
// weight × span duration in nanoseconds per closed span (unknown states
// weigh 1.0). Call it after Tracer.Finish so spans cover the full run;
// with it, the ledger accounts the entire background energy proxy, not
// just the technique costs.
func (l *Ledger) ChargeResidency(t *Tracer) {
	if l == nil || t == nil {
		return
	}
	for _, s := range t.spans {
		w := stateWeight(t.StateName(s.State))
		l.Charge(SystemVM, s.Rank, CauseBaseline, 0, w*float64(s.Duration()))
	}
}

// LedgerEntry is one nonzero ledger cell in exported form.
type LedgerEntry struct {
	VM     int64   `json:"vm"`
	Rank   int     `json:"rank"`
	Cause  string  `json:"cause"`
	LatNs  int64   `json:"lat_ns"`
	Energy float64 `json:"energy"`
}

// CauseTotal is one cause's aggregate cost across all VMs and ranks.
type CauseTotal struct {
	Cause  string  `json:"cause"`
	LatNs  int64   `json:"lat_ns"`
	Energy float64 `json:"energy"`
}

// LedgerSnapshot is the exported (and JSON-serialized) form of a ledger:
// grand totals, per-cause totals, and every nonzero (vm, rank, cause) cell,
// deterministically sorted by (vm, rank, cause code) so identical runs
// produce byte-identical artifacts.
type LedgerSnapshot struct {
	TotalLatNs  int64         `json:"total_lat_ns"`
	TotalEnergy float64       `json:"total_energy"`
	Causes      []CauseTotal  `json:"causes"`
	Entries     []LedgerEntry `json:"entries"`
}

// Snapshot exports the ledger's current state.
func (l *Ledger) Snapshot() *LedgerSnapshot {
	snap := &LedgerSnapshot{}
	if l == nil {
		return snap
	}
	snap.TotalLatNs = l.total.LatNs
	snap.TotalEnergy = l.total.Energy
	for c := 0; c < NumCauses; c++ {
		if l.byCause[c].zero() {
			continue
		}
		snap.Causes = append(snap.Causes, CauseTotal{
			Cause: Cause(c).String(), LatNs: l.byCause[c].LatNs, Energy: l.byCause[c].Energy,
		})
	}
	vms := make([]int64, 0, len(l.cells))
	for vm := range l.cells {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, vm := range vms {
		for slot, row := range l.cells[vm] {
			if row == nil {
				continue
			}
			for c, cell := range row {
				if cell.zero() {
					continue
				}
				snap.Entries = append(snap.Entries, LedgerEntry{
					VM: vm, Rank: slot - 1, Cause: Cause(c).String(),
					LatNs: cell.LatNs, Energy: cell.Energy,
				})
			}
		}
	}
	return snap
}

// WriteJSON serializes the ledger snapshot as indented JSON. The output is
// deterministic: identical charge histories produce byte-identical files.
func (l *Ledger) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(l.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// EmitTo dumps every nonzero ledger cell into the tracer as one "ledger"
// record at time at, so exported traces carry the attribution totals and
// SummarizeJSONL can rebuild the breakdown from a trace alone.
func (l *Ledger) EmitTo(t *Tracer, at sim.Time) {
	if l == nil || t == nil {
		return
	}
	for _, e := range l.Snapshot().Entries {
		t.LedgerCell(e.VM, e.Rank, e.Cause, e.LatNs, e.Energy, at)
	}
}

// ParseLedgerSnapshot reads a ledger artifact written by WriteJSON.
func ParseLedgerSnapshot(r io.Reader) (*LedgerSnapshot, error) {
	dec := json.NewDecoder(r)
	var snap LedgerSnapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("telemetry: parsing ledger: %w", err)
	}
	return &snap, nil
}

// sortEntries orders entries by (vm, rank, cause code) — the canonical
// ledger order shared by Snapshot and the trace summarizers.
func sortEntries(entries []LedgerEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.VM != b.VM {
			return a.VM < b.VM
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if ra, rb := causeRank(a.Cause), causeRank(b.Cause); ra != rb {
			return ra < rb
		}
		return a.Cause < b.Cause
	})
}

// causeRank orders cause names canonically (declaration order), with
// unknown names after the known set (lexically, via sortEntries' tiebreak).
func causeRank(name string) int {
	if c, ok := ParseCause(name); ok {
		return int(c)
	}
	return NumCauses
}
