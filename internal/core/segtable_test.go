package core

import (
	"math/rand"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// materializedPages counts the pages a segment table holds: linked pages
// plus released ones waiting on the spare stack.
func materializedPages(t *segTable) int {
	n := len(t.spare)
	for _, p := range t.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestSegTableMatchesMapReference drives random set/del against a map and
// checks get, len and forEach after every step. HSNs cluster on a few
// entries of each page, so pages empty out and are refilled over and over:
// the test requires both releases and reuses, that released pages are clean
// and that the table never holds more pages than were ever live at once.
func TestSegTableMatchesMapReference(t *testing.T) {
	const nPages, perPage = 8, 6
	tbl := newSegTable(nPages << segTablePageBits)
	ref := map[dram.HSN]dram.DSN{}
	rng := rand.New(rand.NewSource(1))
	releases, reuses, peakLive := 0, 0, 0
	for step := 0; step < 20000; step++ {
		pi := rng.Intn(nPages)
		hsn := dram.HSN(pi<<segTablePageBits + rng.Intn(perPage)*677)
		spare := len(tbl.spare)
		if rng.Intn(2) == 0 {
			dsn := dram.DSN(rng.Int63n(1 << 20))
			if tbl.pages[pi] == nil && spare > 0 {
				reuses++
			}
			tbl.set(hsn, dsn)
			ref[hsn] = dsn
		} else {
			tbl.del(hsn)
			delete(ref, hsn)
			if len(tbl.spare) > spare {
				releases++
			}
		}

		got, ok := tbl.get(hsn)
		want, wantOK := ref[hsn]
		if ok != wantOK || got != want {
			t.Fatalf("step %d: get(%d) = %d,%v, want %d,%v", step, hsn, got, ok, want, wantOK)
		}
		if tbl.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, tbl.len(), len(ref))
		}
		live := 0
		for pi, p := range tbl.pages {
			if p == nil {
				continue
			}
			live++
			mapped := 0
			for _, v := range p {
				if v != segUnmapped {
					mapped++
				}
			}
			if int(tbl.used[pi]) != mapped || mapped == 0 {
				t.Fatalf("step %d: linked page %d counts %d entries, holds %d", step, pi, tbl.used[pi], mapped)
			}
		}
		peakLive = max(peakLive, live)
		if m := materializedPages(tbl); m > peakLive {
			t.Fatalf("step %d: %d pages materialized, peak live pages %d", step, m, peakLive)
		}
		if step%97 == 0 {
			checkSegTableIteration(t, tbl, ref)
			for _, p := range tbl.spare {
				for i, v := range p {
					if v != segUnmapped {
						t.Fatalf("step %d: spare page slot %d holds %d", step, i, v)
					}
				}
			}
		}
	}
	checkSegTableIteration(t, tbl, ref)
	if releases == 0 || reuses == 0 {
		t.Fatalf("pages released %d times and reused %d times; the test must exercise both", releases, reuses)
	}
}

// checkSegTableIteration requires forEach to visit exactly ref's entries in
// strictly ascending HSN order.
func checkSegTableIteration(t *testing.T, tbl *segTable, ref map[dram.HSN]dram.DSN) {
	t.Helper()
	seen := 0
	prev := dram.HSN(-1)
	tbl.forEach(func(hsn dram.HSN, dsn dram.DSN) {
		if hsn <= prev {
			t.Fatalf("forEach visited hsn %d after %d", hsn, prev)
		}
		prev = hsn
		if want, ok := ref[hsn]; !ok || want != dsn {
			t.Fatalf("forEach visited %d -> %d, reference has %d,%v", hsn, dsn, want, ok)
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("forEach visited %d mappings, reference has %d", seen, len(ref))
	}
}

// TestSegTableBoundedByLiveAUs churns VMs until every host's free-AU queue
// has handed out each of its AU ids at least once. AU ids rotate through
// the whole HSN space, so a table that kept every page it ever touched would
// end up covering all hosts' address spaces; the recycled table must never
// hold more pages than the peak number of simultaneously live AUs needs.
func TestSegTableBoundedByLiveAUs(t *testing.T) {
	cfg := DefaultConfig(dram.Geometry{
		Channels: 4, RanksPerChannel: 4, BanksPerRank: 16,
		SegmentBytes: 2 * dram.MiB, RankBytes: 8 * dram.GiB,
	})
	cfg.AUBytes = 2 * dram.GiB // 1024 segments: 4 AUs per 4096-entry page
	cfg.MaxHosts = 4           // 4 hosts x 64 AU ids = 64 pages of HSN space
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	segsPerAU := cfg.SegmentsPerAU()
	if (1<<segTablePageBits)%segsPerAU != 0 {
		t.Fatalf("test needs AUs that tile pages, got %d segments per AU", segsPerAU)
	}

	const maxLiveAUs = 16 // of the device's 64
	rng := rand.New(rand.NewSource(3))
	type liveVM struct {
		id  VMID
		aus int64
	}
	var live []liveVM
	handedOut := make([]int64, cfg.MaxHosts)
	touched := map[int64]bool{}
	var liveAUs, peakAUs int64
	next := VMID(0)
	now := sim.Time(0)
	rotated := func() bool {
		for _, n := range handedOut {
			if n < cfg.TotalAUs() {
				return false
			}
		}
		return true
	}
	for step := 0; !rotated(); step++ {
		if step > 100000 {
			t.Fatalf("AU ids never rotated: handed out %v of %d per host", handedOut, cfg.TotalAUs())
		}
		now += sim.Second
		aus := int64(1 + rng.Intn(4))
		if liveAUs+aus <= maxLiveAUs && rng.Intn(3) != 0 {
			host := HostID(rng.Intn(cfg.MaxHosts))
			a := mustAlloc(t, d, next, host, aus*cfg.AUBytes, now)
			for _, base := range a.AUBases {
				touched[int64(d.codec.HostSegmentOf(base))>>segTablePageBits] = true
			}
			live = append(live, liveVM{next, aus})
			handedOut[host] += aus
			liveAUs += aus
			next++
		} else if len(live) > 0 {
			i := rng.Intn(len(live))
			mustDealloc(t, d, live[i].id, now)
			liveAUs -= live[i].aus
			live = append(live[:i], live[i+1:]...)
		}
		peakAUs = max(peakAUs, liveAUs)
		pagesPerAU := (segsPerAU + (1 << segTablePageBits) - 1) >> segTablePageBits
		if m := int64(materializedPages(d.segMap)); m > peakAUs*pagesPerAU {
			t.Fatalf("step %d: segment table holds %d pages, peak live AUs %d need at most %d",
				step, m, peakAUs, peakAUs*pagesPerAU)
		}
	}
	if int64(len(touched)) <= peakAUs {
		t.Fatalf("churn touched only %d pages for a peak of %d live AUs; rotation never exceeded the bound",
			len(touched), peakAUs)
	}
}
