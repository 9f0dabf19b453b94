package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// denseLedger is the ledger's earlier cell layout, kept as a reference:
// every VM owns one dense (Ranks+1)×NumCauses block, allocated on its first
// charge. The sparse-row ledger must export exactly what it exported.
type denseLedger struct {
	ranks   int
	cells   map[int64][]LedgerCell
	byCause [NumCauses]LedgerCell
	total   LedgerCell
}

func newDenseLedger(ranks int) *denseLedger {
	return &denseLedger{ranks: ranks, cells: map[int64][]LedgerCell{}}
}

func (l *denseLedger) Charge(vm int64, rank int, cause Cause, latNs int64, energy float64) {
	cells := l.cells[vm]
	if cells == nil {
		cells = make([]LedgerCell, (l.ranks+1)*NumCauses)
		l.cells[vm] = cells
	}
	c := &cells[(rank+1)*NumCauses+int(cause)]
	c.LatNs += latNs
	c.Energy += energy
	l.byCause[cause].LatNs += latNs
	l.byCause[cause].Energy += energy
	l.total.LatNs += latNs
	l.total.Energy += energy
}

func (l *denseLedger) Snapshot() *LedgerSnapshot {
	snap := &LedgerSnapshot{TotalLatNs: l.total.LatNs, TotalEnergy: l.total.Energy}
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
		cells := l.cells[vm]
		for rank := -1; rank < l.ranks; rank++ {
			for c := 0; c < NumCauses; c++ {
				cell := cells[(rank+1)*NumCauses+c]
				if cell.zero() {
					continue
				}
				snap.Entries = append(snap.Entries, LedgerEntry{
					VM: vm, Rank: rank, Cause: Cause(c).String(),
					LatNs: cell.LatNs, Energy: cell.Energy,
				})
			}
		}
	}
	return snap
}

// writeJSON is Ledger.WriteJSON over the dense reference.
func (l *denseLedger) writeJSON(t *testing.T) []byte {
	t.Helper()
	data, err := json.MarshalIndent(l.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

type charger interface {
	Charge(vm int64, rank int, cause Cause, latNs int64, energy float64)
}

// randomCharges charges the same random sequence into every ledger. Ranks
// and VMs cluster so some cells accumulate several charges, some rows are
// charged only with zero cost, and most rows are never touched.
func randomCharges(rng *rand.Rand, n, ranks int, ls ...charger) {
	for i := 0; i < n; i++ {
		vm := int64(rng.Intn(6)) - 1      // SystemVM included
		rank := rng.Intn(ranks/4+1)*3 - 1 // -1 (unscoped) and every third rank
		cause := Cause(rng.Intn(NumCauses))
		lat, energy := int64(rng.Intn(1000)), rng.Float64()*100
		if rng.Intn(5) == 0 {
			lat, energy = 0, 0
		}
		for _, l := range ls {
			l.Charge(vm, rank, cause, lat, energy)
		}
	}
}

func sparseJSON(t *testing.T, l *Ledger) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLedgerRowsMatchDenseLayout pins the sparse rows to the dense layout's
// exports: Snapshot and WriteJSON bytes are equal over random charges.
func TestLedgerRowsMatchDenseLayout(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranks := 1 + rng.Intn(64)
		sparse, dense := NewLedger(ranks), newDenseLedger(ranks)
		randomCharges(rng, rng.Intn(400), ranks, sparse, dense)
		if got, want := sparse.Snapshot(), dense.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: snapshot\n got %+v\nwant %+v", seed, got, want)
		}
		if got, want := sparseJSON(t, sparse), dense.writeJSON(t); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: WriteJSON bytes differ:\n%s\nvs\n%s", seed, got, want)
		}
	}
}

// TestLedgerRowsMatchDenseThroughRackFold replays the rack's finish-time
// fold (rack.Fabric.FinishAttribution): per-expander ledgers with local
// ranks are folded through their snapshots into one rack-wide ledger, local
// rank r of expander x landing on rack rank rk*(X*C) + x*C + ch. The folded
// rack ledger must export the same bytes under both layouts.
func TestLedgerRowsMatchDenseThroughRackFold(t *testing.T) {
	const expanders, channels, ranksPerChannel = 4, 4, 8
	const local = channels * ranksPerChannel
	rackRank := func(x, r int) int {
		ch, rk := r%channels, r/channels
		return rk*(expanders*channels) + x*channels + ch
	}
	rng := rand.New(rand.NewSource(7))
	rackSparse := NewLedger(expanders * local)
	rackDense := newDenseLedger(expanders * local)
	randomCharges(rng, 200, expanders*local, rackSparse, rackDense)
	for x := 0; x < expanders; x++ {
		sub := NewLedger(local)
		randomCharges(rng, 300, local, sub)
		for _, e := range sub.Snapshot().Entries {
			cause, ok := ParseCause(e.Cause)
			if !ok {
				t.Fatalf("unknown cause %q", e.Cause)
			}
			rank := -1
			if e.Rank >= 0 {
				rank = rackRank(x, e.Rank)
			}
			rackSparse.Charge(e.VM, rank, cause, e.LatNs, e.Energy)
			rackDense.Charge(e.VM, rank, cause, e.LatNs, e.Energy)
		}
	}
	if got, want := sparseJSON(t, rackSparse), rackDense.writeJSON(t); !bytes.Equal(got, want) {
		t.Fatalf("folded rack ledger bytes differ:\n%s\nvs\n%s", got, want)
	}
	if len(rackSparse.Snapshot().Entries) == 0 {
		t.Fatal("fold produced no entries")
	}
}

// TestLedgerChargeAllocatesOneRow pins the sparse layout's cost: the first
// charge of a new VM on one rank of a 128-rank ledger allocates the VM's
// row-pointer slice and that rank's row, nothing more (the dense layout
// allocated all 129 rows at once).
func TestLedgerChargeAllocatesOneRow(t *testing.T) {
	const ranks = 128
	ptrBytes := uint64((ranks + 1) * 8)
	rowBytes := uint64(NumCauses) * 16
	best := ^uint64(0)
	var bestMallocs uint64
	for try := 0; try < 5; try++ {
		l := NewLedger(ranks)
		l.Charge(0, 3, CauseBaseline, 1, 1) // the map's first insert sizes it
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.Charge(1, 77, CauseMigrationCopy, 5, 2)
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b < best {
			best, bestMallocs = b, after.Mallocs-before.Mallocs
		}
		runtime.KeepAlive(l)
	}
	// Size-class rounding adds at most 1/8 to each allocation.
	if limit := (ptrBytes + rowBytes) * 9 / 8; best > limit || bestMallocs > 2 {
		t.Fatalf("first charge on (vm, rank) allocated %d bytes in %d objects, want <= %d bytes in 2 (%d-byte row pointers + %d-byte row)",
			best, bestMallocs, limit, ptrBytes, rowBytes)
	}
}

// TestLedgerRowMemoFollowsVMChanges charges runs to VM 0 (the memo's zero
// value), SystemVM, VM 0 again, VM 7 and then a VM never seen, checking
// Snapshot after every run against a plain sum per (vm, rank, cause): a
// memoized row slice that outlived its VM would put a run's charges on the
// previous VM.
func TestLedgerRowMemoFollowsVMChanges(t *testing.T) {
	const ranks = 6
	type key struct {
		vm    int64
		rank  int
		cause Cause
	}
	l := NewLedger(ranks)
	ref := map[key]LedgerCell{}
	rng := rand.New(rand.NewSource(3))
	for step, vm := range []int64{0, SystemVM, 0, 7, 42} {
		for i := 0; i < 5+rng.Intn(20); i++ {
			k := key{vm: vm, rank: rng.Intn(ranks+1) - 1, cause: Cause(rng.Intn(NumCauses))}
			lat, energy := int64(1+rng.Intn(1000)), rng.Float64()*100
			l.Charge(k.vm, k.rank, k.cause, lat, energy)
			c := ref[k]
			c.LatNs += lat
			c.Energy += energy
			ref[k] = c
		}
		var want []LedgerEntry
		for k, c := range ref {
			want = append(want, LedgerEntry{VM: k.vm, Rank: k.rank, Cause: k.cause.String(), LatNs: c.LatNs, Energy: c.Energy})
		}
		sortEntries(want)
		if got := l.Snapshot().Entries; !reflect.DeepEqual(got, want) {
			t.Fatalf("after run %d (vm %d):\n got %+v\nwant %+v", step, vm, got, want)
		}
	}
}
