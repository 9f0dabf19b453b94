// Package core implements the DRAM Translation Layer (DTL): the in-device
// HPA→DPA indirection of §3.2, the segment allocator and support functions
// of §4.3, the rank-level power-down engine of §3.3, the hotness-aware
// self-refresh engine of §3.4, and the atomic data-migration protocol of
// §4.2. It also carries the analytic metadata-size (Table 5) and controller
// power/area (Table 6) models.
package core

import (
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// Config collects DTL parameters. Start from DefaultConfig: New validates
// the config as given and fills nothing in.
type Config struct {
	// Geometry of the underlying device.
	Geometry dram.Geometry
	// AUBytes is the allocation unit: the minimum vMemory allocation per VM
	// instance (2 GB, §3.2).
	AUBytes int64
	// MaxHosts is the number of compute hosts sharing the device (16 in
	// Table 5).
	MaxHosts int

	// L1SMCEntries is the fully-associative first-level segment mapping
	// cache size (64).
	L1SMCEntries int
	// L2SMCEntries sizes the l2SMCWays-way second-level cache (1024).
	L2SMCEntries int

	// ProfilingWindow is the per-rank access-count window used to select
	// the victim rank (0.5 ms, §3.4).
	ProfilingWindow sim.Time
	// ProfilingThreshold is the required idle time of the hypothetical
	// victim rank before migration starts (50 ms default).
	ProfilingThreshold sim.Time
	// TSPTimeoutEntries bounds the CLOCK walk for a cold target segment:
	// the 40 ns TSP timeout as a maximum number of migration-table
	// entries inspected per walk (SRAM reads at ~1.5 GHz: 40 ns ≈ 60
	// entries; we use a conservative 32).
	TSPTimeoutEntries int
	// ReserveRankGroups is how many rank groups' worth of unallocated
	// capacity must remain active before power-down is considered: the
	// default 1 implements §3.3's "exceeds the size of a single
	// rank-group" check; larger values keep more headroom (experiments
	// use this to pin configurations like the paper's fixed 6-rank
	// setups); values above the group count disable power-down.
	ReserveRankGroups int
	// SelfRefreshMinStandby is the self-refresh enter policy: how many
	// standby ranks a channel must retain after a victim enters
	// self-refresh. §3.4 needs at least one standby target rank to absorb
	// the victim's hot segments, so the floor (and default) is 1; larger
	// values make entry more conservative, and values at or above
	// RanksPerChannel disable self-refresh entry altogether.
	SelfRefreshMinStandby int
}

// Fixed parameters of the paper's controller, which no configuration varies.
const (
	// l2SMCWays is the second-level SMC's associativity (4-way).
	l2SMCWays = 4
	// migrationRetryLimit is the abort-retry bound before a migration
	// request is re-queued (3, §4.2).
	migrationRetryLimit = 3

	// SMC timing (Eq. 2) at a 1.5 GHz controller clock: L1 hit 1 cycle ≈
	// 0.67 ns, L2 hit 7 cycles ≈ 4.67 ns (§6.1), rounded at nanosecond
	// resolution; the miss path reads two SRAM tables (host base address
	// table, AU table) and the segment mapping table in DRAM.
	l1SMCHit      = 1 * sim.Nanosecond
	l2SMCHit      = 5 * sim.Nanosecond
	sramTableHit  = 1 * sim.Nanosecond
	dramTableMiss = 121 * sim.Nanosecond
)

// DefaultConfig returns the paper's parameters for the given geometry.
func DefaultConfig(g dram.Geometry) Config {
	return Config{
		Geometry:              g,
		AUBytes:               2 << 30,
		MaxHosts:              16,
		L1SMCEntries:          64,
		L2SMCEntries:          1024,
		ProfilingWindow:       500 * sim.Microsecond,
		ProfilingThreshold:    50 * sim.Millisecond,
		TSPTimeoutEntries:     32,
		ReserveRankGroups:     1,
		SelfRefreshMinStandby: 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.AUBytes <= 0 || c.AUBytes%c.Geometry.SegmentBytes != 0 {
		return fmt.Errorf("core: AU size %d must be a positive multiple of segment size %d",
			c.AUBytes, c.Geometry.SegmentBytes)
	}
	segsPerAU := c.AUBytes / c.Geometry.SegmentBytes
	if segsPerAU%int64(c.Geometry.Channels) != 0 {
		return fmt.Errorf("core: segments per AU %d must divide evenly across %d channels",
			segsPerAU, c.Geometry.Channels)
	}
	if c.MaxHosts <= 0 {
		return fmt.Errorf("core: max hosts must be positive")
	}
	if c.L1SMCEntries <= 0 || c.L2SMCEntries <= 0 {
		return fmt.Errorf("core: SMC sizes must be positive")
	}
	if c.L2SMCEntries%l2SMCWays != 0 {
		return fmt.Errorf("core: L2 SMC entries %d not divisible by ways %d", c.L2SMCEntries, l2SMCWays)
	}
	sets := c.L2SMCEntries / l2SMCWays
	if sets&(sets-1) != 0 {
		return fmt.Errorf("core: L2 SMC set count %d must be a power of two", sets)
	}
	if c.ProfilingWindow <= 0 || c.ProfilingThreshold <= 0 {
		return fmt.Errorf("core: profiling window/threshold must be positive")
	}
	if c.TSPTimeoutEntries <= 0 {
		return fmt.Errorf("core: TSP timeout entries must be positive")
	}
	if c.ReserveRankGroups < 1 {
		return fmt.Errorf("core: reserve rank groups must be at least 1")
	}
	if c.SelfRefreshMinStandby < 1 {
		return fmt.Errorf("core: self-refresh min standby must be at least 1")
	}
	return nil
}

// SegmentsPerAU reports how many segments one allocation unit spans.
func (c Config) SegmentsPerAU() int64 { return c.AUBytes / c.Geometry.SegmentBytes }

// TotalAUs reports how many allocation units the device holds.
func (c Config) TotalAUs() int64 { return c.Geometry.TotalBytes() / c.AUBytes }
