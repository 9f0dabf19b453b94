package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// buildPopulatedDTL creates a DTL with several VMs, a powered-down group
// and a retired rank — a representative durable state.
func buildPopulatedDTL(t testing.TB) *DTL {
	t.Helper()
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	mustAlloc(t, d, 2, 1, 128*dram.MiB, 1000)
	mustAlloc(t, d, 3, 2, 16*dram.MiB, 2000)
	mustDealloc(t, d, 2, 3000)
	if err := d.RetireRank(dram.RankID{Channel: 2, Rank: 3}, 4000); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := buildPopulatedDTL(t)
	var buf bytes.Buffer
	if err := d.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}

	r, err := LoadMetadata(&buf, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Mappings identical.
	if r.segMap.len() != d.segMap.len() {
		t.Fatalf("segment count %d != %d", r.segMap.len(), d.segMap.len())
	}
	d.segMap.forEach(func(hsn dram.HSN, dsn dram.DSN) {
		got, ok := r.segMap.get(hsn)
		if !ok || got != dsn {
			t.Fatalf("mapping mismatch at hsn %d: %d != %d", hsn, got, dsn)
		}
	})
	// VM population identical.
	if r.LiveVMs() != d.LiveVMs() {
		t.Fatalf("VMs %d != %d", r.LiveVMs(), d.LiveVMs())
	}
	for _, vm := range []VMID{1, 3} {
		want, _ := d.VMAddresses(vm)
		got, err := r.VMAddresses(vm)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("vm %d AU count %d != %d", vm, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("vm %d AU base %d: %v != %v", vm, i, got[i], want[i])
			}
			// The ledger charges the restored VM, not the system.
			if owner := r.ownerOf(dram.HSN(int64(got[i]) >> r.codec.SegmentShift())); owner != int64(vm) {
				t.Fatalf("vm %d AU base %d owned by %d after restore", vm, i, owner)
			}
		}
	}
	// Power states identical.
	g := d.Config().Geometry
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.RanksPerChannel; rk++ {
			id := dram.RankID{Channel: ch, Rank: rk}
			if r.dev.State(id) != d.dev.State(id) {
				t.Fatalf("state mismatch at %v: %v != %v", id, r.dev.State(id), d.dev.State(id))
			}
		}
	}
	if len(r.RetiredRanks()) != 1 || r.RetiredRanks()[0] != (dram.RankID{Channel: 2, Rank: 3}) {
		t.Fatalf("retired = %v", r.RetiredRanks())
	}
	if r.PoweredDownGroups() != d.PoweredDownGroups() {
		t.Fatalf("groups %d != %d", r.PoweredDownGroups(), d.PoweredDownGroups())
	}
}

func TestSnapshotRestoredDeviceIsUsable(t *testing.T) {
	d := buildPopulatedDTL(t)
	var buf bytes.Buffer
	if err := d.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadMetadata(&buf, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Old VMs accessible; new VMs allocatable; deallocation works.
	a, _ := r.VMAddresses(1)
	if _, err := r.Access(a[0], false, 10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AllocateVM(9, 0, 32*dram.MiB, 11_000); err != nil {
		t.Fatal(err)
	}
	if err := r.DeallocateVM(1, 12_000); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	d := buildPopulatedDTL(t)
	var a, b bytes.Buffer
	if err := d.SaveMetadata(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveMetadata(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots of identical state differ")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	d := buildPopulatedDTL(t)
	var buf bytes.Buffer
	if err := d.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a byte in the middle (mapping area).
	raw[len(raw)/2] ^= 0xff
	if _, err := LoadMetadata(bytes.NewReader(raw), testConfig()); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

func TestSnapshotTruncationDetected(t *testing.T) {
	d := buildPopulatedDTL(t)
	var buf bytes.Buffer
	if err := d.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadMetadata(bytes.NewReader(raw), testConfig()); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	if _, err := LoadMetadata(strings.NewReader("not a snapshot at all, definitely"), testConfig()); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSnapshotGeometryMismatch(t *testing.T) {
	d := buildPopulatedDTL(t)
	var buf bytes.Buffer
	if err := d.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	other := testConfig()
	other.Geometry.RankBytes *= 2
	if _, err := LoadMetadata(&buf, other); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestSnapshotEmptyDevice(t *testing.T) {
	d := newTestDTL(t)
	var buf bytes.Buffer
	if err := d.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadMetadata(&buf, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveVMs() != 0 || r.AllocatedBytes() != 0 {
		t.Fatal("empty device restored non-empty")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotAfterHotnessActivity(t *testing.T) {
	cfg := testConfig()
	cfg.ProfilingWindow = 10 * sim.Microsecond
	cfg.ProfilingThreshold = 100 * sim.Microsecond
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	now := driveAccesses(t, d, a[:4], 2000, 0, 500)
	d.Tick(now + 200*sim.Microsecond)

	var buf bytes.Buffer
	if err := d.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadMetadata(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Self-refresh states survive; the hotness engine restarts cold.
	if len(r.Device().RanksIn(dram.SelfRefresh)) != len(d.Device().RanksIn(dram.SelfRefresh)) {
		t.Fatal("self-refresh population not preserved")
	}
	if r.Hotness().Enabled() {
		t.Fatal("hotness engine should restart disabled (volatile state)")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySnapshotRoundTripRandomStates(t *testing.T) {
	// Arbitrary alloc/dealloc/retire histories must survive a checkpoint:
	// the restored device is indistinguishable under CheckInvariants and
	// serves every live VM's address space.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		live := map[VMID]bool{}
		next := VMID(1)
		now := sim.Time(0)
		for op := 0; op < 60; op++ {
			now += 1000
			switch r := rng.Intn(10); {
			case r < 5:
				sz := int64(rng.Intn(8)+1) * 16 * dram.MiB
				if _, err := d.AllocateVM(next, HostID(rng.Intn(4)), sz, now); err == nil {
					live[next] = true
				}
				next++
			case r < 8 && len(live) > 0:
				for id := range live {
					if err := d.DeallocateVM(id, now); err != nil {
						return false
					}
					delete(live, id)
					break
				}
			case r == 9 && len(d.RetiredRanks()) == 0:
				// One retirement attempt per history at most.
				_ = d.RetireRank(dram.RankID{Channel: rng.Intn(4), Rank: rng.Intn(4)}, now)
			}
		}

		var buf bytes.Buffer
		if err := d.SaveMetadata(&buf); err != nil {
			t.Logf("seed %d: save: %v", seed, err)
			return false
		}
		r, err := LoadMetadata(&buf, testConfig())
		if err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		if r.AllocatedBytes() != d.AllocatedBytes() || r.LiveVMs() != d.LiveVMs() {
			return false
		}
		for id := range live {
			want, _ := d.VMAddresses(id)
			got, err := r.VMAddresses(id)
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Logf("seed %d: restored: %v", seed, err)
			return false
		}
		// A VM's segments are derived from its AUs, so freeing every live
		// VM must empty the restored device exactly as it empties the
		// original.
		for _, dev := range []*DTL{d, r} {
			for id := range live {
				if err := dev.DeallocateVM(id, now); err != nil {
					t.Logf("seed %d: dealloc vm %d: %v", seed, id, err)
					return false
				}
			}
			if err := dev.CheckInvariants(); err != nil {
				t.Logf("seed %d: after freeing every VM: %v", seed, err)
				return false
			}
			if b := dev.AllocatedBytes(); b != 0 {
				t.Logf("seed %d: %d bytes still allocated after freeing every VM", seed, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// snapshotBody returns d's snapshot without its CRC trailer.
func snapshotBody(t testing.TB, d *DTL) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[:buf.Len()-4]
}

// withCRC appends the CRC trailer SaveMetadata would write after body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// TestSnapshotOutOfRangeHSN: a mapping whose hsn lies outside the hosts'
// address space is refused with an error, never a panic — whether the CRC
// trailer is stale (the CRC is checked before any record is used) or
// recomputed over the corrupted body (the hsn is range-checked).
func TestSnapshotOutOfRangeHSN(t *testing.T) {
	d := buildPopulatedDTL(t)
	body := snapshotBody(t, d)
	// The first mapping's hsn follows the header, the rank records, the
	// powered-down groups and the mapping count.
	g := d.Config().Geometry
	off := 9*8 + 16*g.TotalRanks() + 8
	for _, group := range d.poweredDown {
		off += 8 + 16*len(group)
	}
	off += 8
	if d.segMap.len() == 0 {
		t.Fatal("populated device has no mappings")
	}
	for _, hsn := range []int64{-1, 1 << 40} {
		for _, crc := range []string{"stale", "recomputed"} {
			corrupt := withCRC(body)
			binary.LittleEndian.PutUint64(corrupt[off:], uint64(hsn))
			if crc == "recomputed" {
				corrupt = withCRC(corrupt[:len(corrupt)-4])
			}
			if _, err := LoadMetadata(bytes.NewReader(corrupt), testConfig()); err == nil {
				t.Errorf("hsn %d with a %s CRC accepted", hsn, crc)
			}
		}
	}
}

// FuzzLoadMetadata: whatever the body, with a valid CRC trailer over it,
// LoadMetadata never panics; a snapshot it accepts passes CheckInvariants
// and SaveMetadata re-emits it byte for byte.
func FuzzLoadMetadata(f *testing.F) {
	f.Add(snapshotBody(f, newTestDTL(f)))
	populated := buildPopulatedDTL(f)
	f.Add(snapshotBody(f, populated))
	populated.PowerDownIdle(5000)
	f.Add(snapshotBody(f, populated))
	f.Fuzz(func(t *testing.T, body []byte) {
		in := withCRC(body)
		d, err := LoadMetadata(bytes.NewReader(in), testConfig())
		if err != nil {
			return
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot fails its invariants: %v", err)
		}
		var out bytes.Buffer
		if err := d.SaveMetadata(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("accepted snapshot re-emitted differently:\n in %x\nout %x", in, out.Bytes())
		}
	})
}
