package core

import (
	"slices"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// migSetup produces a DTL with an in-flight drain migration and returns the
// HPA of a segment that is being migrated plus the time migration started.
func migSetup(t *testing.T) (*DTL, dram.HPA, sim.Time) {
	t.Helper()
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	mustAlloc(t, d, 2, 0, 480*dram.MiB, 0)
	mustAlloc(t, d, 3, 0, 16*dram.MiB, 0)
	start := sim.Time(1000)
	mustDealloc(t, d, 2, start) // drains VM1's rank: VM1 segments migrate
	if d.Migrator().Outstanding() == 0 {
		t.Fatal("setup: no outstanding migrations")
	}
	addrs, err := d.VMAddresses(1)
	if err != nil {
		t.Fatal(err)
	}
	return d, addrs[0], start
}

func TestWriteConflictDuringMigration(t *testing.T) {
	d, hpa, start := migSetup(t)
	before := d.Migrator().Stats()
	// Hammer writes into the migrating segment mid-copy.
	now := start + 10*sim.Microsecond
	for i := 0; i < 50; i++ {
		if _, err := d.Access(hpa+dram.HPA(i*64), true, now); err != nil {
			t.Fatal(err)
		}
		now += sim.Microsecond
	}
	after := d.Migrator().Stats()
	if after.WriteConflicts <= before.WriteConflicts {
		t.Fatal("no write conflicts detected during migration")
	}
}

func TestAbortAndRequeue(t *testing.T) {
	d, hpa, start := migSetup(t)
	// Enough conflicting writes must eventually trip aborts, and with the
	// retry limit of 3, requeues.
	now := start + 50*sim.Microsecond
	for i := 0; i < 2000; i++ {
		if _, err := d.Access(hpa+dram.HPA((i%1024)*64), true, now); err != nil {
			t.Fatal(err)
		}
		now += 2 * sim.Microsecond
	}
	st := d.Migrator().Stats()
	if st.Aborts == 0 {
		t.Fatal("no aborts despite sustained write conflicts")
	}
	if st.Requeues == 0 {
		t.Fatalf("no requeues after %d aborts (limit %d)", st.Aborts, d.Config().MigrationRetryLimit)
	}
}

func TestReadsNeverConflict(t *testing.T) {
	d, hpa, start := migSetup(t)
	before := d.Migrator().Stats()
	now := start + 10*sim.Microsecond
	for i := 0; i < 100; i++ {
		if _, err := d.Access(hpa+dram.HPA(i*64), false, now); err != nil {
			t.Fatal(err)
		}
		now += sim.Microsecond
	}
	after := d.Migrator().Stats()
	if after.WriteConflicts != before.WriteConflicts {
		t.Fatal("reads counted as write conflicts")
	}
	if after.Aborts != before.Aborts {
		t.Fatal("reads caused aborts")
	}
}

func TestRoutedToNewAfterCopyCompletes(t *testing.T) {
	d, hpa, _ := migSetup(t)
	// Locate the in-flight window of hpa's segment and write inside the
	// completion-bit span: the copy is done but the mapping update has not
	// retired, so the write must be routed to the new DSN (§4.2).
	hsn := d.codec.HostSegmentOf(hpa)
	dst, _ := d.segMap.get(hsn)
	mm := (*migrator)(d.Migrator())
	var w *inflight
	for _, ws := range mm.windows {
		for _, cand := range ws {
			if cand.dst == dst {
				w = cand
			}
		}
	}
	if w == nil {
		t.Fatal("no in-flight window for the migrated segment")
	}
	now := w.start + sim.Time(float64(w.dur)*(copyFraction+0.05))
	if _, err := d.Access(hpa, true, now); err != nil {
		t.Fatal(err)
	}
	st := d.Migrator().Stats()
	if st.RoutedToNew != 1 {
		t.Fatalf("routed-to-new = %d, want 1", st.RoutedToNew)
	}
	if st.Aborts != 0 {
		t.Fatalf("completion-bit write caused %d aborts", st.Aborts)
	}
}

func TestMigrationsRetire(t *testing.T) {
	d, _, start := migSetup(t)
	m := d.Migrator()
	var endMax sim.Time
	for ch := 0; ch < d.Config().Geometry.Channels; ch++ {
		if m.BusyUntil(ch) > endMax {
			endMax = m.BusyUntil(ch)
		}
	}
	d.Tick(endMax + 1)
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after all windows ended", m.Outstanding())
	}
	if got := m.Stats().Completed; got != m.Stats().Enqueued {
		t.Fatalf("completed %d != enqueued %d", got, m.Stats().Enqueued)
	}
	_ = start
}

func TestMigrationSerializedPerChannel(t *testing.T) {
	// Total busy time on a channel must equal the sum of durations
	// (sequential issue), and windows must not overlap.
	d, _, _ := migSetup(t)
	mm := (*migrator)(d.Migrator())
	for ch, ws := range mm.windows {
		for i := 1; i < len(ws); i++ {
			if ws[i].start < ws[i-1].end {
				t.Fatalf("channel %d windows overlap: %+v then %+v", ch, ws[i-1], ws[i])
			}
		}
	}
}

func TestProgressAt(t *testing.T) {
	w := inflight{start: 100, end: 200, dur: 100}
	if w.progressAt(50) != 0 {
		t.Error("progress before start")
	}
	// The copy occupies copyFraction of the window; at the window midpoint
	// the copy is 50/(100*0.9) done.
	if got, want := w.progressAt(150), 50.0/90.0; got != want {
		t.Errorf("progress at midpoint = %v, want %v", got, want)
	}
	// Past the copy span, the completion bit is set.
	if w.progressAt(195) != 1 {
		t.Error("completion-bit span should report progress 1")
	}
	if w.progressAt(250) != 1 {
		t.Error("progress after end")
	}
}

// checkWatermark requires every channel's watermark to be a lower bound on
// the ends of its windows, and the filter bit of every segment a window
// names to be set: the two facts that make skipping a channel and skipping
// a write's scan exact.
func checkWatermark(t *testing.T, m *migrator) {
	t.Helper()
	for ch, ws := range m.windows {
		for _, w := range ws {
			if w.end < m.minEnd[ch] {
				t.Fatalf("channel %d: window ends at %d, below watermark %d", ch, w.end, m.minEnd[ch])
			}
			if !m.isNamed(w.src) || !m.isNamed(w.dst) {
				t.Fatalf("channel %d: window %d->%d has a clear filter bit", ch, w.src, w.dst)
			}
		}
	}
}

// windowOf returns the in-flight window copying hpa's segment, and its
// channel.
func windowOf(t *testing.T, d *DTL, hpa dram.HPA) (*inflight, int) {
	t.Helper()
	dst, _ := d.segMap.get(d.codec.HostSegmentOf(hpa))
	for ch, ws := range d.mig.windows {
		for _, w := range ws {
			if w.dst == dst {
				return w, ch
			}
		}
	}
	t.Fatal("no in-flight window for the segment")
	return nil, 0
}

// TestRescheduledWindowRetiresAtNewEnd: an abort-restart and a tail requeue
// both rewrite a window's end. Whatever the watermark held before, the
// window must retire exactly at its new end: not a nanosecond early (the
// old end has passed) and not late (a stale watermark must not hide it).
func TestRescheduledWindowRetiresAtNewEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		done func(before, after MigStats) bool
	}{
		{"abort-restart", func(b, a MigStats) bool { return a.Aborts > b.Aborts && a.Requeues == b.Requeues }},
		{"tail-requeue", func(b, a MigStats) bool { return a.Requeues > b.Requeues }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, hpa, start := migSetup(t)
			w, ch := windowOf(t, d, hpa)
			oldEnd := w.end
			now := w.start + 1
			if now < start {
				now = start
			}
			hit := false
			for i := 0; i < 5000 && !hit; i++ {
				before := d.mig.stats
				if _, err := d.Access(hpa+dram.HPA((i%1024)*64), true, now); err != nil {
					t.Fatal(err)
				}
				checkWatermark(t, d.mig)
				if !slices.Contains(d.mig.windows[ch], w) {
					t.Fatal("window retired before it was rescheduled")
				}
				hit = tc.done(before, d.mig.stats)
				now += 2 * sim.Microsecond
			}
			if !hit {
				t.Fatalf("no %s after 5000 conflicting writes", tc.name)
			}
			if w.end <= oldEnd {
				t.Fatalf("end %d did not move past %d", w.end, oldEnd)
			}
			newEnd := w.end
			d.mig.completeUpTo(newEnd - 1)
			checkWatermark(t, d.mig)
			if !slices.Contains(d.mig.windows[ch], w) {
				t.Fatal("window retired before its new end")
			}
			d.mig.completeUpTo(newEnd)
			checkWatermark(t, d.mig)
			if slices.Contains(d.mig.windows[ch], w) {
				t.Fatal("window still in flight at its new end")
			}
		})
	}
}

// TestWriteFilterIsExact drives the same writes through a DTL with the
// per-segment write filter and through one whose filter has every bit set,
// which scans the channel on every write as the protocol did before the
// filter existed. Counters and windows must agree at every step; the filter
// bit of a segment whose windows retired clears on the next write to it,
// and a new copy of the segment sets it again.
func TestWriteFilterIsExact(t *testing.T) {
	d, hpa, start := migSetup(t)
	ref, _, _ := migSetup(t)
	for i := range ref.mig.named {
		ref.mig.named[i] = ^uint64(0)
	}
	var idle []dram.HPA
	for _, vm := range []VMID{1, 3} {
		addrs, err := d.VMAddresses(vm)
		if err != nil {
			t.Fatal(err)
		}
		idle = append(idle, addrs...)
	}
	same := func(step int) {
		t.Helper()
		if got, want := d.mig.stats, ref.mig.stats; got != want {
			t.Fatalf("step %d: stats %+v, want %+v", step, got, want)
		}
		for ch := range d.mig.windows {
			a, b := d.mig.windows[ch], ref.mig.windows[ch]
			if len(a) != len(b) {
				t.Fatalf("step %d channel %d: %d windows, want %d", step, ch, len(a), len(b))
			}
			for i := range a {
				if *a[i] != *b[i] {
					t.Fatalf("step %d channel %d window %d: %+v, want %+v", step, ch, i, *a[i], *b[i])
				}
			}
		}
		checkWatermark(t, d.mig)
	}
	access := func(step int, a dram.HPA, write bool, now sim.Time) {
		t.Helper()
		if _, err := d.Access(a, write, now); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Access(a, write, now); err != nil {
			t.Fatal(err)
		}
		same(step)
	}

	// Writes to the migrating segment and to idle ones while copies run.
	now := start + 10*sim.Microsecond
	for i := 0; i < 3000; i++ {
		a := hpa + dram.HPA((i%1024)*64)
		if i%3 != 0 {
			a = idle[(i*7919)%len(idle)] + dram.HPA((i%512)*64)
		}
		access(i, a, i%4 != 3, now)
		now += sim.Microsecond
	}
	if d.mig.stats.WriteConflicts == 0 || d.mig.stats.Aborts == 0 {
		t.Fatalf("writes never conflicted: %+v", d.mig.stats)
	}

	// Retire everything; the segment's bit survives until a write scans.
	var end sim.Time
	for ch := range d.mig.busyUntil {
		end = max(end, d.mig.busyUntil[ch], ref.mig.busyUntil[ch])
	}
	d.Tick(end + 1)
	ref.Tick(end + 1)
	same(-1)
	dsn, _ := d.segMap.get(d.codec.HostSegmentOf(hpa))
	before := d.mig.stats
	access(-2, hpa, true, end+2)
	if d.mig.isNamed(dsn) {
		t.Fatal("filter bit still set after the segment's windows retired")
	}
	if d.mig.stats.WriteConflicts != before.WriteConflicts || d.mig.stats.Aborts != before.Aborts {
		t.Fatalf("write to a settled segment changed conflicts: %+v -> %+v", before, d.mig.stats)
	}

	// A fresh copy names the segment again, and writes conflict again.
	d.mig.enqueueCopy(dsn, dsn+1, end+3, "test")
	ref.mig.enqueueCopy(dsn, dsn+1, end+3, "test")
	if !d.mig.isNamed(dsn) || !d.mig.isNamed(dsn+1) {
		t.Fatal("enqueue did not set the filter bits")
	}
	now = end + 3 + sim.Microsecond
	for i := 0; i < 200; i++ {
		access(3000+i, hpa+dram.HPA((i%1024)*64), true, now)
		now += sim.Microsecond
	}
	if d.mig.stats.WriteConflicts == before.WriteConflicts {
		t.Fatal("writes to the re-enqueued segment never conflicted")
	}
}
