package experiments

import (
	"fmt"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/rack"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// Live progress snapshots for `dtlsim -watch`. The sim goroutine publishes a
// WatchSnapshot on the Options.Watch channel at every sampling tick; the
// renderer (cmd/dtlsim) owns the terminal. Publishing never blocks the sim —
// SendWatch coalesces by replacing a stale undelivered snapshot with the
// fresh one — so runs are byte-identical with and without a watcher, and a
// slow terminal can never stall virtual time.

// WatchRank is one rank's position in the power-state strip.
type WatchRank struct {
	Rank  int    // global rank id (tracer numbering: rank*channels + channel)
	Name  string // "ch0/rk3"
	State string // "standby", "self-refresh", "mpsm", or "retired"
}

// WatchSnapshot is one observation of a running experiment.
type WatchSnapshot struct {
	Experiment string   // runner id ("fig12"); stamped by RunAll
	Now        sim.Time // virtual time of the snapshot
	Horizon    sim.Time // run horizon; 0 when the experiment cannot know it

	Ranks []WatchRank // power-state strip, in global-rank order

	// Rolling counters, cumulative since the run started.
	Migrations int64 // segments migrated (drains, swaps, retirement drains)
	Wakes      int64 // self-refresh exits forced by foreground accesses
	Faults     int64 // device fault reports seen by the health monitor
	Retired    int   // ranks permanently offline

	// Attr is the cost ledger's running per-cause totals (nonzero causes
	// only, taxonomy order); empty when no ledger is attached.
	Attr []WatchAttr

	Done bool // final snapshot, published as the run finishes
}

// WatchAttr is one cause's cumulative attribution cost.
type WatchAttr struct {
	Cause  string
	LatNs  int64
	Energy float64
}

// snapshotDTLs reads one WatchSnapshot off live devices: a single DTL, or
// the expanders of the rack f when f is non-nil. The rank strip runs in
// global order (for a rack, expander channels side by side, so the strip
// groups visually by expander), counters are summed across the devices,
// and attribution totals merge every device's private ledger plus, for a
// rack, the rack ledger (the fabric causes). Counter reads go through the
// registry (Counter is get-or-create, and all of these exist from DTL
// construction), so the snapshot needs no hooks inside the model.
func snapshotDTLs(ds []*core.DTL, f *rack.Fabric, label string, now, horizon sim.Time, done bool) WatchSnapshot {
	g := ds[0].Config().Geometry
	snap := WatchSnapshot{
		Experiment: label,
		Now:        now,
		Horizon:    horizon,
		Ranks:      make([]WatchRank, 0, len(ds)*g.TotalRanks()),
		Done:       done,
	}
	var totals [telemetry.NumCauses]telemetry.LedgerCell
	merge := func(led *telemetry.Ledger) {
		if led == nil {
			return
		}
		ct := led.CauseTotals()
		for c := range ct {
			totals[c].LatNs += ct[c].LatNs
			totals[c].Energy += ct[c].Energy
		}
	}
	if f != nil {
		merge(f.Ledger())
	}
	retired := map[dram.RankID]bool{} // keyed by global channel
	for x, d := range ds {
		reg := d.Registry()
		snap.Migrations += reg.Counter("core.migration.segments_migrated").Value()
		snap.Wakes += reg.Counter("core.selfrefresh.exits").Value()
		snap.Faults += reg.Counter("core.health.fault_events").Value()
		for _, id := range d.RetiredRanks() {
			retired[dram.RankID{Channel: x*g.Channels + id.Channel, Rank: id.Rank}] = true
		}
		merge(d.Ledger())
	}
	snap.Retired = len(retired)
	for c := telemetry.Cause(0); int(c) < telemetry.NumCauses; c++ {
		cell := totals[c]
		if cell.LatNs == 0 && cell.Energy == 0 {
			continue
		}
		snap.Attr = append(snap.Attr, WatchAttr{
			Cause: c.String(), LatNs: cell.LatNs, Energy: cell.Energy,
		})
	}
	// Global-rank order matches the tracer: rank*channels + channel, the
	// channels of every device counted together.
	totalCh := len(ds) * g.Channels
	for rk := 0; rk < g.RanksPerChannel; rk++ {
		for x, d := range ds {
			for ch := 0; ch < g.Channels; ch++ {
				id := dram.RankID{Channel: ch, Rank: rk}
				r := WatchRank{Rank: rk*totalCh + x*g.Channels + ch, Name: id.String(),
					State: d.Device().State(id).String()}
				if f != nil {
					r.Name = fmt.Sprintf("x%d/%s", x, id)
				}
				if retired[dram.RankID{Channel: x*g.Channels + ch, Rank: rk}] {
					r.State = "retired"
				}
				snap.Ranks = append(snap.Ranks, r)
			}
		}
	}
	return snap
}

// SendWatch delivers snap without ever blocking: if the channel is full the
// stale queued snapshot is dropped in favor of the fresh one. With the cap-1
// channels dtlsim and dtlserved create, the reader always gets the newest
// state.
func SendWatch(ch chan WatchSnapshot, snap WatchSnapshot) {
	for {
		select {
		case ch <- snap:
			return
		default:
		}
		select {
		case <-ch: // evict the stale snapshot
		default:
		}
	}
}
