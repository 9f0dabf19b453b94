package telemetry

import (
	"fmt"
	"math"
	"sort"

	"dtl/internal/dram"
	"dtl/internal/metrics"
)

// Summary comparison: the model behind `dtlstat diff`. Two runs of the same
// experiment are compared on the quantities the paper's evaluation argues
// about — power-state residency shares, migration-latency percentiles, and
// a residency-weighted background-energy proxy — with tolerance bands so a
// policy change can be reviewed (or CI-gated) in one command.

// stateWeights is dram.DefaultPowerModel's Table 2 background power per
// state name, the weights of EnergyProxy and Ledger.ChargeResidency.
var stateWeights = func() map[string]float64 {
	pm := dram.DefaultPowerModel()
	w := map[string]float64{}
	for s := dram.Standby; s <= dram.MPSM; s++ {
		w[s.String()] = pm.Background(s)
	}
	return w
}()

// stateWeight is state's Table 2 weight. A state absent from the table
// weighs 1.0 (standby-equivalent), so an unknown state can only make the
// proxy pessimistic, never hide energy.
func stateWeight(state string) float64 {
	if w, ok := stateWeights[state]; ok {
		return w
	}
	return 1.0
}

// EnergyProxy folds residency into a background-energy figure: Table 2
// weight × microseconds, summed over ranks in id order and each rank's
// states in name order, so the result does not depend on map order. It
// deliberately excludes active and migration energy — those need the
// power meter — but tracks exactly the background component the
// power-down and self-refresh engines optimize, which is what a residency
// trace can support.
func (s *TraceSummary) EnergyProxy() float64 {
	var total float64
	for _, rank := range s.Ranks() {
		s.eachState(rank, func(state string, us float64) {
			total += stateWeight(state) * us
		})
	}
	return total
}

// DiffTolerance bounds the acceptable drift between two summaries. Zero
// values disable the corresponding check.
type DiffTolerance struct {
	// Share is the maximum absolute drift of any state's residency share,
	// aggregate and per-rank (e.g. 0.05 = five percentage points).
	Share float64
	// LatFrac is the maximum relative shift of any migration-latency
	// percentile (P50/P95/P99), e.g. 0.25 = 25%.
	LatFrac float64
	// EnergyFrac is the maximum relative drift of the energy proxy.
	EnergyFrac float64
	// AttrFrac is the maximum relative shift of any per-cause attribution
	// total (latency or energy) from the ledger dump.
	AttrFrac float64
}

// ShareDelta is one state's residency share in both runs.
type ShareDelta struct {
	State string
	A, B  float64 // shares in [0, 1]
}

// Delta is B - A.
func (d ShareDelta) Delta() float64 { return d.B - d.A }

// RankDiff is one rank's per-state share deltas.
type RankDiff struct {
	Rank   int
	Label  string
	Shares []ShareDelta
}

// PercentileDelta is one migration-latency percentile in both runs.
type PercentileDelta struct {
	Name string  // "P50", "P95", "P99"
	A, B float64 // microseconds
}

// Shift reports the relative change (B-A)/A (see relShift).
func (d PercentileDelta) Shift() float64 { return relShift(d.A, d.B) }

// relShift is the relative change (b-a)/a: 0 when both are zero, and 1 (a
// full shift) for a value appearing from nothing.
func relShift(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	return (b - a) / a
}

// CauseDelta is one attribution cause's ledger total in both runs.
type CauseDelta struct {
	Cause            string
	LatA, LatB       int64   // nanoseconds
	EnergyA, EnergyB float64 // energy-proxy units
}

// LatShift reports the relative latency change (B-A)/A (see relShift).
func (d CauseDelta) LatShift() float64 { return relShift(float64(d.LatA), float64(d.LatB)) }

// EnergyShift reports the relative energy change (B-A)/A (see relShift).
func (d CauseDelta) EnergyShift() float64 { return relShift(d.EnergyA, d.EnergyB) }

// SummaryDiff is the structured comparison of two trace summaries.
type SummaryDiff struct {
	States    []string     // union of state names, sorted
	Aggregate []ShareDelta // device-wide shares per state
	Ranks     []RankDiff   // per-rank shares, sorted by rank id

	// RanksOnlyA / RanksOnlyB list ranks present in one summary only (a
	// geometry mismatch; always a violation when non-empty).
	RanksOnlyA, RanksOnlyB []int

	MigrationsA, MigrationsB int
	Percentiles              []PercentileDelta // set when either run migrated

	EnergyA, EnergyB float64 // EnergyProxy of each run

	// Points maps event name → [countA, countB] for the instant events.
	Points map[string][2]int

	// Causes compares per-cause attribution totals when either trace
	// carries a ledger dump, in cause-taxonomy order.
	Causes []CauseDelta
}

// DiffSummaries compares two summaries (A is the baseline, B the candidate)
// into a SummaryDiff; apply tolerances with Check.
func DiffSummaries(a, b *TraceSummary) *SummaryDiff {
	stateSet := map[string]bool{}
	for _, st := range a.States() {
		stateSet[st] = true
	}
	for _, st := range b.States() {
		stateSet[st] = true
	}
	states := make([]string, 0, len(stateSet))
	for st := range stateSet {
		states = append(states, st)
	}
	sort.Strings(states)

	d := &SummaryDiff{
		States:      states,
		MigrationsA: len(a.MigrationsUs),
		MigrationsB: len(b.MigrationsUs),
		EnergyA:     a.EnergyProxy(),
		EnergyB:     b.EnergyProxy(),
		Points:      map[string][2]int{},
	}

	ranksA, ranksB := a.Ranks(), b.Ranks()
	aggA, aggB := a.Fold(ranksA...), b.Fold(ranksB...)
	for _, st := range states {
		d.Aggregate = append(d.Aggregate, ShareDelta{State: st, A: aggA.Share(st), B: aggB.Share(st)})
	}

	inA := map[int]bool{}
	for _, r := range ranksA {
		inA[r] = true
	}
	inB := map[int]bool{}
	for _, r := range ranksB {
		inB[r] = true
	}
	for _, r := range ranksA {
		if !inB[r] {
			d.RanksOnlyA = append(d.RanksOnlyA, r)
		}
	}
	for _, r := range ranksB {
		if !inA[r] {
			d.RanksOnlyB = append(d.RanksOnlyB, r)
		}
	}
	for _, r := range ranksA {
		if !inB[r] {
			continue
		}
		shA, shB := a.Fold(r), b.Fold(r)
		rd := RankDiff{Rank: r, Label: a.RankLabel(r)}
		for _, st := range states {
			rd.Shares = append(rd.Shares, ShareDelta{State: st, A: shA.Share(st), B: shB.Share(st)})
		}
		d.Ranks = append(d.Ranks, rd)
	}

	if len(a.MigrationsUs) > 0 || len(b.MigrationsUs) > 0 {
		sumA := metrics.Summarize(a.MigrationsUs)
		sumB := metrics.Summarize(b.MigrationsUs)
		d.Percentiles = []PercentileDelta{
			{Name: "P50", A: sumA.P50, B: sumB.P50},
			{Name: "P95", A: sumA.P95, B: sumB.P95},
			{Name: "P99", A: sumA.P99, B: sumB.P99},
		}
	}

	nameSet := map[string]bool{}
	for n := range a.Points {
		nameSet[n] = true
	}
	for n := range b.Points {
		nameSet[n] = true
	}
	for n := range nameSet {
		d.Points[n] = [2]int{a.Points[n], b.Points[n]}
	}

	d.Causes = diffCauses(a.Attribution, b.Attribution)
	return d
}

// diffCauses folds two ledger dumps into per-cause totals and pairs them.
func diffCauses(a, b []LedgerEntry) []CauseDelta {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	totals := map[string]*CauseDelta{}
	cause := func(name string) *CauseDelta {
		if totals[name] == nil {
			totals[name] = &CauseDelta{Cause: name}
		}
		return totals[name]
	}
	for _, e := range a {
		cd := cause(e.Cause)
		cd.LatA += e.LatNs
		cd.EnergyA += e.Energy
	}
	for _, e := range b {
		cd := cause(e.Cause)
		cd.LatB += e.LatNs
		cd.EnergyB += e.Energy
	}
	out := make([]CauseDelta, 0, len(totals))
	for _, cd := range totals {
		out = append(out, *cd)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := causeRank(out[i].Cause), causeRank(out[j].Cause)
		if ri != rj {
			return ri < rj
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

// EnergyDelta is the relative energy-proxy change (B-A)/A (see relShift).
func (d *SummaryDiff) EnergyDelta() float64 { return relShift(d.EnergyA, d.EnergyB) }

// WorstRankShare finds the largest absolute per-rank share drift for one
// state; ok is false when no rank is shared between the summaries.
func (d *SummaryDiff) WorstRankShare(state string) (RankDiff, ShareDelta, bool) {
	var worstRank RankDiff
	var worst ShareDelta
	found := false
	for _, rd := range d.Ranks {
		for _, sh := range rd.Shares {
			if sh.State != state {
				continue
			}
			if !found || math.Abs(sh.Delta()) > math.Abs(worst.Delta()) {
				worstRank, worst, found = rd, sh, true
			}
		}
	}
	return worstRank, worst, found
}

// Check applies the tolerance bands and returns one human-readable string
// per violation (empty = the candidate is within band).
func (d *SummaryDiff) Check(tol DiffTolerance) []string {
	var bad []string
	if len(d.RanksOnlyA) > 0 || len(d.RanksOnlyB) > 0 {
		bad = append(bad, fmt.Sprintf("rank sets differ: %d only in A, %d only in B",
			len(d.RanksOnlyA), len(d.RanksOnlyB)))
	}
	if tol.Share > 0 {
		for _, sh := range d.Aggregate {
			if math.Abs(sh.Delta()) > tol.Share {
				bad = append(bad, fmt.Sprintf("aggregate %s share drift %+.3f exceeds ±%.3f",
					sh.State, sh.Delta(), tol.Share))
			}
		}
		for _, st := range d.States {
			if rd, sh, ok := d.WorstRankShare(st); ok && math.Abs(sh.Delta()) > tol.Share {
				bad = append(bad, fmt.Sprintf("rank %s %s share drift %+.3f exceeds ±%.3f",
					rd.Label, st, sh.Delta(), tol.Share))
			}
		}
	}
	if tol.LatFrac > 0 {
		for _, p := range d.Percentiles {
			if math.Abs(p.Shift()) > tol.LatFrac {
				bad = append(bad, fmt.Sprintf("migration %s shift %+.1f%% exceeds ±%.1f%%",
					p.Name, 100*p.Shift(), 100*tol.LatFrac))
			}
		}
	}
	if tol.EnergyFrac > 0 && math.Abs(d.EnergyDelta()) > tol.EnergyFrac {
		bad = append(bad, fmt.Sprintf("energy proxy drift %+.2f%% exceeds ±%.2f%%",
			100*d.EnergyDelta(), 100*tol.EnergyFrac))
	}
	if tol.AttrFrac > 0 {
		for _, cd := range d.Causes {
			if math.Abs(cd.LatShift()) > tol.AttrFrac {
				bad = append(bad, fmt.Sprintf("attribution %s latency shift %+.1f%% exceeds ±%.1f%%",
					cd.Cause, 100*cd.LatShift(), 100*tol.AttrFrac))
			}
			if math.Abs(cd.EnergyShift()) > tol.AttrFrac {
				bad = append(bad, fmt.Sprintf("attribution %s energy shift %+.1f%% exceeds ±%.1f%%",
					cd.Cause, 100*cd.EnergyShift(), 100*tol.AttrFrac))
			}
		}
	}
	return bad
}
