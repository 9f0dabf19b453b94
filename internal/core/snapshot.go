package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// Metadata persistence is the availability extension the paper's conclusion
// motivates: the DTL's mapping state (segment mapping table, allocation
// state, rank power states) is small — Table 5 puts it in megabytes even
// for a 4 TB device — so the controller can checkpoint it to its own
// reserved DRAM/flash region and survive a firmware restart without losing
// the host's address space.
//
// The format is a flat little-endian stream guarded by a CRC32 trailer:
//
//	magic, version, geometry, AU size, max hosts,
//	rank records (state, retired),
//	powered-down groups,
//	segment mappings (hsn, dsn)*,
//	VM records (id, host, AU ids)*,
//	per-host free AU queues.
//
// Volatile state (SMC contents, migration-table plans, in-flight copy
// windows, statistics) is deliberately not persisted: caches refill, plans
// rebuild, and in-flight copies are idempotent to redo.

const (
	snapshotMagic   = 0x44544c31 // "DTL1"
	snapshotVersion = 1
)

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

func put(w io.Writer, vs ...int64) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// SaveMetadata serializes the DTL's durable state to w.
func (d *DTL) SaveMetadata(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	g := d.cfg.Geometry

	if err := put(cw,
		snapshotMagic, snapshotVersion,
		int64(g.Channels), int64(g.RanksPerChannel), int64(g.BanksPerRank),
		g.SegmentBytes, g.RankBytes,
		d.cfg.AUBytes, int64(d.cfg.MaxHosts),
	); err != nil {
		return err
	}

	// Rank records.
	for gr := 0; gr < g.TotalRanks(); gr++ {
		ch, rk := d.codec.SplitGlobalRank(gr)
		state := int64(d.dev.State(dram.RankID{Channel: ch, Rank: rk}))
		retired := int64(0)
		if d.retired[gr] {
			retired = 1
		}
		if err := put(cw, state, retired); err != nil {
			return err
		}
	}

	// Powered-down virtual groups.
	if err := put(cw, int64(len(d.poweredDown))); err != nil {
		return err
	}
	for _, group := range d.poweredDown {
		if err := put(cw, int64(len(group))); err != nil {
			return err
		}
		for _, id := range group {
			if err := put(cw, int64(id.Channel), int64(id.Rank)); err != nil {
				return err
			}
		}
	}

	// Segment mapping table. The dense table iterates in ascending HSN
	// order, so the stream is deterministic without a sort pass.
	if err := put(cw, int64(d.segMap.len())); err != nil {
		return err
	}
	var mapErr error
	d.segMap.forEach(func(hsn dram.HSN, dsn dram.DSN) {
		if mapErr == nil {
			mapErr = put(cw, int64(hsn), int64(dsn))
		}
	})
	if mapErr != nil {
		return mapErr
	}

	// VM records, sorted by id.
	ids := make([]VMID, 0, len(d.vms))
	for id := range d.vms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if err := put(cw, int64(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		st := d.vms[id]
		if err := put(cw, int64(id), int64(st.host), int64(len(st.aus))); err != nil {
			return err
		}
		if err := put(cw, st.aus...); err != nil {
			return err
		}
	}

	// Free AU queues per host.
	for h := 0; h < d.cfg.MaxHosts; h++ {
		if err := put(cw, int64(d.auFree[h].len())); err != nil {
			return err
		}
		if err := put(cw, d.auFree[h].items()...); err != nil {
			return err
		}
	}

	// CRC trailer (over everything before it).
	if err := binary.Write(bw, binary.LittleEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

// snapReader reads a snapshot's little-endian int64s and folds every byte
// into the running CRC. The first error sticks: later reads return 0.
type snapReader struct {
	r   *bufio.Reader
	crc uint32
	err error
}

func (s *snapReader) int() int64 {
	if s.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(s.r, b[:]); err != nil {
		s.err = err
		return 0
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b[:])
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// ints reads n records of width int64s each, refusing a count outside
// [0, max] before allocating for it.
func (s *snapReader) ints(what string, n, max int64, width int) []int64 {
	if s.err == nil && (n < 0 || n > max) {
		s.err = fmt.Errorf("%d %s records, want at most %d", n, what, max)
	}
	if s.err != nil {
		return nil
	}
	out := make([]int64, n*int64(width))
	for i := range out {
		out[i] = s.int()
	}
	return out
}

// LoadMetadata reconstructs a DTL from a snapshot. The caller supplies the
// same configuration the device was built with (thresholds and cache sizes
// are configuration, not durable state); geometry and allocation-unit
// parameters are cross-checked against the snapshot. No record is acted on
// before the whole body has been read and its CRC trailer checked, and
// each is then range-checked against the configuration, so a corrupted
// snapshot is an error, never a panic.
func LoadMetadata(r io.Reader, cfg Config) (*DTL, error) {
	sr := &snapReader{r: bufio.NewReader(r)}
	var hdr [9]int64
	for i := range hdr {
		hdr[i] = sr.int()
	}
	if sr.err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", sr.err)
	}
	if hdr[0] != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %#x", hdr[0])
	}
	if hdr[1] != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", hdr[1])
	}
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	g := d.cfg.Geometry
	if want := [7]int64{int64(g.Channels), int64(g.RanksPerChannel), int64(g.BanksPerRank),
		g.SegmentBytes, g.RankBytes, d.cfg.AUBytes, int64(d.cfg.MaxHosts)}; [7]int64(hdr[2:]) != want {
		return nil, fmt.Errorf("core: snapshot geometry/AU/hosts %v do not match config %v", hdr[2:], want)
	}

	// Read the whole body, bounding every count by the configuration.
	ranks := sr.ints("rank", int64(g.TotalRanks()), int64(g.TotalRanks()), 2)
	var groups [][]int64
	nGroups := sr.int()
	if sr.err == nil && (nGroups < 0 || nGroups > int64(g.RanksPerChannel)) {
		return nil, fmt.Errorf("core: snapshot has %d powered-down groups", nGroups)
	}
	for i := int64(0); i < nGroups && sr.err == nil; i++ {
		groups = append(groups, sr.ints("group member", sr.int(), int64(g.Channels), 2))
	}
	maps := sr.ints("segment mapping", sr.int(), g.TotalSegments(), 2)
	type vmRecord struct {
		id, host int64
		aus      []int64
	}
	var vms []vmRecord
	nVMs := sr.int()
	if sr.err == nil && nVMs < 0 {
		return nil, fmt.Errorf("core: snapshot has %d VMs", nVMs)
	}
	for i := int64(0); i < nVMs && sr.err == nil; i++ {
		id, host := sr.int(), sr.int()
		vms = append(vms, vmRecord{id, host, sr.ints("vm AU", sr.int(), d.totalAUs, 1)})
	}
	free := make([][]int64, d.cfg.MaxHosts)
	for h := range free {
		free[h] = sr.ints("free AU", sr.int(), d.totalAUs, 1)
	}
	if sr.err != nil {
		return nil, fmt.Errorf("core: snapshot body: %w", sr.err)
	}
	var gotCRC uint32
	if err := binary.Read(sr.r, binary.LittleEndian, &gotCRC); err != nil {
		return nil, fmt.Errorf("core: snapshot CRC: %w", err)
	}
	if gotCRC != sr.crc {
		return nil, fmt.Errorf("core: snapshot CRC mismatch: %#x != %#x", gotCRC, sr.crc)
	}

	// Rank records: restore power states and retirement. State transitions
	// happen at time zero with no penalty accounting (the device restarts).
	for gr := 0; gr < g.TotalRanks(); gr++ {
		state, retired := ranks[2*gr], ranks[2*gr+1]
		if state < 0 || state > int64(dram.MPSM) || retired < 0 || retired > 1 {
			return nil, fmt.Errorf("core: snapshot rank %d has invalid state %d / retired %d", gr, state, retired)
		}
		ch, rk := d.codec.SplitGlobalRank(gr)
		d.dev.SetState(dram.RankID{Channel: ch, Rank: rk}, dram.PowerState(state), sim.Time(0))
		if retired == 1 {
			if d.retired == nil {
				d.retired = make(map[int]bool)
			}
			d.retired[gr] = true
		}
	}
	for i, members := range groups {
		group := make([]dram.RankID, len(members)/2)
		for j := range group {
			ch, rk := members[2*j], members[2*j+1]
			if ch < 0 || ch >= int64(g.Channels) || rk < 0 || rk >= int64(g.RanksPerChannel) {
				return nil, fmt.Errorf("core: snapshot group %d names rank ch%d/rk%d", i, ch, rk)
			}
			group[j] = dram.RankID{Channel: int(ch), Rank: int(rk)}
		}
		d.poweredDown = append(d.poweredDown, group)
	}

	// Segment mappings, in the ascending HSN order SaveMetadata writes;
	// rebuild revMap and allocation counters, then derive the free queues
	// from what is not mapped.
	maxHSN := int64(d.cfg.MaxHosts) * d.totalAUs * d.segsPerAU
	prevHSN := int64(-1)
	for i := 0; i < len(maps); i += 2 {
		hsn, dsn := maps[i], maps[i+1]
		if hsn <= prevHSN || hsn >= maxHSN {
			return nil, fmt.Errorf("core: snapshot hsn %d out of order or outside [0, %d)", hsn, maxHSN)
		}
		prevHSN = hsn
		if dsn < 0 || dsn >= g.TotalSegments() {
			return nil, fmt.Errorf("core: snapshot dsn %d out of range", dsn)
		}
		if d.revMap[dsn] != dsnFree {
			return nil, fmt.Errorf("core: snapshot maps dsn %d twice", dsn)
		}
		d.segMap.set(dram.HSN(hsn), dram.DSN(dsn))
		d.revMap[dsn] = dram.HSN(hsn)
	}
	for gr := range d.free {
		d.free[gr].reset()
		d.allocated[gr] = 0
	}
	for s := dram.DSN(0); int64(s) < g.TotalSegments(); s++ {
		l := d.codec.DecodeDSN(s)
		gr := d.codec.GlobalRank(l.Channel, l.Rank)
		if d.retired[gr] {
			if d.revMap[s] != dsnFree {
				return nil, fmt.Errorf("core: snapshot maps dsn %d on retired rank", s)
			}
			continue
		}
		if d.revMap[s] == dsnFree {
			d.free[gr].push(s)
		} else {
			d.allocated[gr]++
		}
	}

	// VM records, in the ascending id order SaveMetadata writes.
	for i, vm := range vms {
		if i > 0 && vm.id <= vms[i-1].id {
			return nil, fmt.Errorf("core: snapshot vm %d out of order", vm.id)
		}
		if vm.host < 0 || vm.host >= int64(d.cfg.MaxHosts) {
			return nil, fmt.Errorf("core: snapshot vm %d has invalid host %d", vm.id, vm.host)
		}
		st := &vmState{host: HostID(vm.host), aus: vm.aus}
		for _, au := range st.aus {
			if au < 0 || au >= d.totalAUs {
				return nil, fmt.Errorf("core: snapshot vm %d names AU %d of %d", vm.id, au, d.totalAUs)
			}
			for off := int64(0); off < d.segsPerAU; off++ {
				hsn := d.hsnOf(st.host, au, off)
				if _, ok := d.segMap.get(hsn); !ok {
					return nil, fmt.Errorf("core: snapshot vm %d missing mapping for hsn %d", vm.id, hsn)
				}
			}
			d.auOwner[vm.host*d.totalAUs+au] = vm.id // the ledger's owner map
		}
		d.vms[VMID(vm.id)] = st
	}

	// Free AU queues.
	for h, aus := range free {
		for _, au := range aus {
			if au < 0 || au >= d.totalAUs {
				return nil, fmt.Errorf("core: snapshot host %d frees AU %d of %d", h, au, d.totalAUs)
			}
		}
		d.auFree[h].reset()
		d.auFree[h].pushAll(aus)
	}

	if err := d.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: restored snapshot inconsistent: %w", err)
	}
	return d, nil
}
