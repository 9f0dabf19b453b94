package core

import (
	"math"
	"slices"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// inflight is one outstanding segment migration on a channel: the register
// set of §4.2 (old DSN, new DSN, progress counter, completion bit). The
// copy runs over [start, end); progress is linear in time because the
// migration queue issues line-sized requests only into idle bus slots.
type inflight struct {
	src, dst dram.DSN
	start    sim.Time
	end      sim.Time
	dur      sim.Time
	retries  int
	// vretries counts verify-after-copy re-routes this segment has taken
	// (destination rank faulted mid-copy), bounded by MigrationRetryLimit.
	vretries int
}

// copyFraction of the window is spent copying lines; the remainder models
// the completion-bit span where the copy is done but the segment mapping
// table and SMC updates are still pending (§4.2).
const copyFraction = 0.9

// progressAt reports the fraction of lines copied by now; 1 means the copy
// finished and the completion bit is set.
func (m *inflight) progressAt(now sim.Time) float64 {
	if now <= m.start {
		return 0
	}
	copyDur := sim.Time(float64(m.dur) * copyFraction)
	if now >= m.start+copyDur || copyDur <= 0 {
		return 1
	}
	return float64(now-m.start) / float64(copyDur)
}

// MigStats counts migration-protocol events.
type MigStats struct {
	Enqueued       int64 // segment copies scheduled
	Completed      int64
	WriteConflicts int64 // foreground writes landing on an in-flight segment
	RoutedToNew    int64 // completion bit set: write sent to the new DSN
	Aborts         int64 // copy aborted and restarted because the line had already migrated
	Requeues       int64 // retry limit exceeded; request moved to queue tail
	BytesQueued    int64
	Verified       int64 // copies whose destination verified healthy at completion
	VerifyFailures int64 // copies that completed onto a failed rank
	Reroutes       int64 // verify failures re-routed to a new destination
	VerifyGiveups  int64 // verify failures left in place (retry limit or no target)
}

// migrator schedules background segment copies per channel and implements
// the §4.2 atomic-migration write protocol. Mapping-table updates are
// applied eagerly by the caller (the simulator does not store data, only
// mappings); the migrator owns the timing windows, the conflict protocol
// and the energy/latency accounting.
type migrator struct {
	d       *DTL
	windows [][]*inflight // per channel, chronological
	// minEnd is a per-channel lower bound on the earliest window end:
	// completeUpTo skips a channel whose bound lies in the future, so the
	// common case costs one comparison instead of a walk over every window.
	// minAll bounds every minEnd from below, so while it lies in the future
	// completeUpTo returns after one comparison for the whole device.
	minEnd []sim.Time
	minAll sim.Time
	// named has one bit per DSN, set for every segment some window copies
	// from or to (and possibly for segments whose windows have retired).
	// Writes to a segment with a clear bit skip the channel's window scan:
	// the §4.2 per-segment migration registers matched in parallel.
	named     []uint64
	busyUntil []sim.Time
	busyNs    []sim.Time // accumulated migration bus time per channel
	stats     MigStats
	latency   *telemetry.Timer // scheduled copy duration, registry-backed
	// pool recycles completed windows: drains and swap storms enqueue
	// thousands of copies, and completeUpTo retires them in batches, so the
	// register-set structs cycle instead of churning the heap.
	pool []*inflight
}

func newMigrator(d *DTL) *migrator {
	g := d.cfg.Geometry
	m := &migrator{
		d:         d,
		windows:   make([][]*inflight, g.Channels),
		minEnd:    make([]sim.Time, g.Channels),
		named:     make([]uint64, (g.TotalSegments()+63)/64),
		busyUntil: make([]sim.Time, g.Channels),
		busyNs:    make([]sim.Time, g.Channels),
		latency:   d.reg.Timer("core.migration.latency_ns", telemetry.DefaultTimerBoundsNs()),
	}
	for ch := range m.minEnd {
		m.minEnd[ch] = noWindow
	}
	m.minAll = noWindow
	return m
}

// noWindow is the watermark of a channel with no windows in flight.
const noWindow = sim.Time(math.MaxInt64)

// lowerWatermark keeps minEnd[ch] and minAll lower bounds after a window on
// ch was given a new end.
func (m *migrator) lowerWatermark(ch int, end sim.Time) {
	m.minEnd[ch] = min(m.minEnd[ch], end)
	m.minAll = min(m.minAll, end)
}

func (m *migrator) setNamed(dsn dram.DSN) { m.named[dsn>>6] |= 1 << (dsn & 63) }

func (m *migrator) clearNamed(dsn dram.DSN) { m.named[dsn>>6] &^= 1 << (dsn & 63) }

func (m *migrator) isNamed(dsn dram.DSN) bool { return m.named[dsn>>6]&(1<<(dsn&63)) != 0 }

// enqueueCopy schedules the copy of one segment from src to dst on channel
// ch, taking dur of the channel's idle bandwidth (the caller's
// memctrl.MigrationTime at now); copies on a channel are serialized behind
// each other. dstGR is dst's global rank, which the caller has decoded.
func (m *migrator) enqueueCopy(ch, dstGR int, src, dst dram.DSN, now, dur sim.Time, reason string) {
	start := now
	if m.busyUntil[ch] > start {
		start = m.busyUntil[ch]
	}
	var w *inflight
	if n := len(m.pool); n > 0 {
		w = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
	} else {
		w = new(inflight)
	}
	*w = inflight{src: src, dst: dst, start: start, end: start + dur, dur: dur}
	m.windows[ch] = append(m.windows[ch], w)
	m.lowerWatermark(ch, w.end)
	m.setNamed(src)
	m.setNamed(dst)
	m.busyUntil[ch] = w.end
	m.busyNs[ch] += dur
	m.stats.Enqueued++
	m.stats.BytesQueued += m.d.cfg.Geometry.SegmentBytes
	m.latency.Observe(float64(w.end - now))
	m.d.tracer.Migration(ch, int64(src), int64(dst), reason, w.start, w.end)
	if m.d.ledger != nil {
		// Charge the copy window (latency) and the active energy of moving
		// one segment to the destination rank, attributed to the VM whose
		// data is moving (SystemVM for unowned segments).
		vm := telemetry.SystemVM
		if hsn := m.d.revMap[dst]; hsn != dsnFree {
			vm = m.d.ownerOf(hsn)
		} else if hsn := m.d.revMap[src]; hsn != dsnFree {
			vm = m.d.ownerOf(hsn)
		}
		m.d.chargeSpan(vm, dstGR, causeForReason(reason), w.start, w.end, m.d.migEnergyPerSeg)
	}
}

// copyTime is the duration of one segment copy on channel ch enqueued at
// now. It reads only the controller's foreground bus time, which no copy
// changes, so every copy enqueued at one now without a foreground access
// between them takes the same value.
func (m *migrator) copyTime(ch int, now sim.Time) sim.Time {
	return m.d.ctrl.MigrationTime(ch, m.d.cfg.Geometry.SegmentBytes, now)
}

// causeForReason maps a migration reason tag to its attribution cause:
// power-down drains are the demotion machinery, verify re-routes and
// retirement drains are the fault path, and everything else (hotness swaps
// and moves, manual migrations) is a plain background copy.
func causeForReason(reason string) telemetry.Cause {
	switch reason {
	case "powerdown-drain":
		return telemetry.CauseDemotionWait
	case "verify-reroute", "retire":
		return telemetry.CauseFaultRetry
	default:
		return telemetry.CauseMigrationCopy
	}
}

// enqueueSwap schedules a bidirectional exchange (two segment copies) of
// slots a and b on channel ch, whose global ranks are grA and grB.
func (m *migrator) enqueueSwap(ch, grA, grB int, a, b dram.DSN, now sim.Time, reason string) {
	dur := m.copyTime(ch, now)
	m.enqueueCopy(ch, grB, a, b, now, dur, reason)
	m.enqueueCopy(ch, grA, b, a, now, dur, reason)
}

// completeUpTo retires windows that finished by now, verifying each copy
// against its destination rank: a copy that completed onto a rank that
// failed mid-flight is re-routed to a fresh destination (bounded by
// MigrationRetryLimit), so data never strands on degrading media.
//
// A channel whose watermark lies after now has no window due and is
// skipped; walking it would retire nothing, so retirement, verify and
// re-route order are those of a walk over every channel.
func (m *migrator) completeUpTo(now sim.Time) {
	if m.minAll > now {
		return
	}
	type reroute struct {
		dst      dram.DSN
		vretries int
	}
	for ch := range m.windows {
		if m.minEnd[ch] > now {
			continue
		}
		ws := m.windows[ch]
		var failed []reroute
		keep := ws[:0]
		next := noWindow
		for _, w := range ws {
			if w.end > now {
				keep = append(keep, w)
				next = min(next, w.end)
				continue
			}
			m.stats.Completed++
			loc := m.d.codec.DecodeDSN(w.dst)
			if m.d.dev.FailedGlobal(m.d.codec.GlobalRank(loc.Channel, loc.Rank)) {
				m.stats.VerifyFailures++
				failed = append(failed, reroute{dst: w.dst, vretries: w.vretries})
			} else {
				m.stats.Verified++
			}
			// The reroute data above is copied by value, so the window can
			// be recycled before the re-route pass runs.
			m.pool = append(m.pool, w)
		}
		m.windows[ch] = keep
		m.minEnd[ch] = next
		// Re-routes are applied after the compaction above: moveSegment
		// enqueues a fresh copy, which appends to m.windows[ch] — doing
		// that mid-compaction would alias the slice being rewritten.
		for _, r := range failed {
			if m.d.revMap[r.dst] == dsnFree {
				continue // already moved off or freed; nothing to save
			}
			if r.vretries >= m.d.cfg.MigrationRetryLimit {
				m.stats.VerifyGiveups++
				continue
			}
			loc := m.d.codec.DecodeDSN(r.dst)
			nd, ngr, ok := m.d.takeDrainTargetOn(loc.Channel, loc.Rank)
			if !ok {
				// No healthy rank with free space on this channel; the data
				// stays readable in degraded mode until retirement drains it.
				m.stats.VerifyGiveups++
				continue
			}
			m.d.moveSegment(loc.Channel, m.d.codec.GlobalRank(loc.Channel, loc.Rank), ngr, r.dst, nd,
				now, m.copyTime(loc.Channel, now), "verify-reroute")
			nws := m.windows[ch]
			nws[len(nws)-1].vretries = r.vretries + 1
			m.stats.Reroutes++
		}
	}
	m.minAll = slices.Min(m.minEnd)
}

// onForegroundAccess applies the §4.2 write protocol when a foreground
// access lands on a segment with an in-flight migration:
//
//   - reads always proceed (the source copy remains valid until the
//     mapping update);
//   - a write with the completion bit set (copy finished, tables pending)
//     is routed to the new DSN;
//   - a write to a line not yet copied proceeds at the old DSN;
//   - a write to an already-copied line aborts the migration, which
//     restarts; after MigrationRetryLimit aborts the request is moved to
//     the tail of the channel's migration queue.
//
// A write to a segment whose filter bit is clear has no window to find and
// returns before the scan. A scan that finds no window naming the segment
// clears its bit, so a stale bit costs one scan and never changes a result.
func (m *migrator) onForegroundAccess(dsn dram.DSN, write bool, now sim.Time) {
	m.completeUpTo(now)
	if !write || !m.isNamed(dsn) {
		return
	}
	loc := m.d.codec.DecodeDSN(dsn)
	ch := loc.Channel
	named := false
	for _, w := range m.windows[ch] {
		if w.src != dsn && w.dst != dsn {
			continue
		}
		named = true
		if now < w.start {
			continue // queued but not copying yet
		}
		m.stats.WriteConflicts++
		m.d.tracer.WriteConflict(ch, now)
		frac := w.progressAt(now)
		if frac >= 1 {
			// Completion bit set: copy done, mapping update pending.
			m.stats.RoutedToNew++
			continue
		}
		// Model the written line's position as uniformly distributed over
		// the segment; deterministic hash of (dsn, now) keeps replays
		// reproducible.
		linePos := float64(uint64(int64(dsn)*2654435761+int64(now))%1024) / 1024.0
		if linePos >= frac {
			continue // line not copied yet: write the old location
		}
		// Line already migrated: abort and restart the copy.
		m.stats.Aborts++
		w.retries++
		if w.retries > m.d.cfg.MigrationRetryLimit {
			// Re-queue at the tail of the channel's migration queue.
			m.stats.Requeues++
			w.retries = 0
			start := m.busyUntil[ch]
			if start < now {
				start = now
			}
			w.start = start
			w.end = start + w.dur
			m.lowerWatermark(ch, w.end)
			m.busyUntil[ch] = w.end
			m.busyNs[ch] += w.dur
			m.chargeStall(w, now)
			continue
		}
		w.start = now
		w.end = now + w.dur
		m.lowerWatermark(ch, w.end)
		if m.busyUntil[ch] < w.end {
			m.busyUntil[ch] = w.end
		}
		m.busyNs[ch] += w.dur
		m.chargeStall(w, now)
	}
	if !named {
		m.clearNamed(dsn)
	}
}

// chargeStall books the delay a foreground write-conflict added to an
// in-flight migration (abort-restart or tail requeue) as migration-stall:
// the span runs from the conflicting write to the rescheduled window's new
// end. The copy energy was charged at enqueue, so stalls carry none.
func (m *migrator) chargeStall(w *inflight, now sim.Time) {
	if m.d.ledger == nil {
		return
	}
	dloc := m.d.codec.DecodeDSN(w.dst)
	gr := m.d.codec.GlobalRank(dloc.Channel, dloc.Rank)
	vm := telemetry.SystemVM
	if hsn := m.d.revMap[w.dst]; hsn != dsnFree {
		vm = m.d.ownerOf(hsn)
	} else if hsn := m.d.revMap[w.src]; hsn != dsnFree {
		vm = m.d.ownerOf(hsn)
	}
	m.d.chargeSpan(vm, gr, telemetry.CauseMigrationStall, now, w.end, 0)
}

// Migrator is the exported statistics surface of the migration engine.
type Migrator migrator

// Stats returns protocol counters.
func (m *Migrator) Stats() MigStats { return m.stats }

// Outstanding reports in-flight migrations across all channels.
func (m *Migrator) Outstanding() int {
	n := 0
	for _, ws := range m.windows {
		n += len(ws)
	}
	return n
}

// BusyUntil reports when channel ch's migration queue drains.
func (m *Migrator) BusyUntil(ch int) sim.Time { return m.busyUntil[ch] }

// TotalBusyNs sums migration bus time over all channels.
func (m *Migrator) TotalBusyNs() sim.Time {
	var t sim.Time
	for _, b := range m.busyNs {
		t += b
	}
	return t
}
