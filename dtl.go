// Package dtl is the public API of the DRAM Translation Layer simulator, a
// reproduction of "DRAM Translation Layer: Software-Transparent DRAM Power
// Savings for Disaggregated Memory" (ISCA 2023).
//
// A Device models a CXL memory expander whose controller embeds a DTL: an
// HPA→DPA indirection at 2 MB segment granularity with two host-transparent
// power-saving mechanisms — rank-level power-down (MPSM consolidation at VM
// deallocation) and hotness-aware self-refresh (cold-segment consolidation
// into a per-channel victim rank).
//
// Quick start:
//
//	dev, _ := dtl.Open()
//	alloc, _ := dev.AllocateVM(1, 0, 8<<30, 0)       // 8 GB for VM 1
//	lat, _ := dev.Read(alloc.AUBases[0], 1000)       // host load
//	_ = dev.DeallocateVM(1, 2000)                    // may power ranks down
//	fmt.Println(dev.PowerSnapshot(3000))
package dtl

import (
	"fmt"
	"io"

	"dtl/internal/core"
	"dtl/internal/cxl"
	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// Re-exported domain types, so callers need only this package.
type (
	// Geometry describes the device organization (channels, ranks, banks,
	// segment and rank sizes).
	Geometry = dram.Geometry
	// HPA is a host physical address.
	HPA = dram.HPA
	// VMID identifies a virtual machine.
	VMID = core.VMID
	// HostID identifies a compute host sharing the device.
	HostID = core.HostID
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Allocation describes a VM placement.
	Allocation = core.Allocation
	// PowerState is a JEDEC rank power state.
	PowerState = dram.PowerState
)

// Power states.
const (
	Standby     = dram.Standby
	SelfRefresh = dram.SelfRefresh
	MPSM        = dram.MPSM
)

// Link latencies measured by the paper.
const (
	NativeDRAMLatency = cxl.NativeDRAMLatency
	CXLMemoryLatency  = cxl.CXLMemoryLatency
)

// Geometry presets.
var (
	// Geometry1TB is the paper's 1 TB evaluation device (Fig. 6).
	Geometry1TB = dram.Default1TB
	// Geometry4TB is the hypothetical scaled device of §6.6.
	Geometry4TB = dram.Hypothetical4TB
)

// Option configures Open.
type Option func(*options)

type options struct {
	geometry Geometry
	linkLat  Time
	cfg      *core.Config
}

// WithGeometry selects the device organization (default: 1 TB, 4 channels x
// 8 ranks).
func WithGeometry(g Geometry) Option { return func(o *options) { o.geometry = g } }

// WithLinkLatency sets the host link latency (default CXLMemoryLatency).
func WithLinkLatency(t Time) Option { return func(o *options) { o.linkLat = t } }

// WithConfig supplies a full core configuration (advanced use: custom SMC
// sizes, profiling thresholds, AU size). The geometry inside the config
// wins over WithGeometry.
func WithConfig(cfg core.Config) Option { return func(o *options) { o.cfg = &cfg } }

// Device is a CXL memory expander with an embedded DRAM Translation Layer.
// It is not safe for concurrent use: like the hardware datapath, accesses
// are presented in nondecreasing time order by a single driver.
type Device struct {
	port *cxl.Port
	dtl  *core.DTL
}

// Open builds a device.
func Open(opts ...Option) (*Device, error) {
	o := options{geometry: Geometry1TB(), linkLat: CXLMemoryLatency}
	for _, fn := range opts {
		fn(&o)
	}
	var cfg core.Config
	if o.cfg != nil {
		cfg = *o.cfg
	} else {
		cfg = core.DefaultConfig(o.geometry)
	}
	d, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("dtl: %w", err)
	}
	port, err := cxl.NewPort(d, o.linkLat)
	if err != nil {
		return nil, fmt.Errorf("dtl: %w", err)
	}
	return &Device{port: port, dtl: d}, nil
}

// Geometry reports the device organization.
func (d *Device) Geometry() Geometry { return d.dtl.Config().Geometry }

// AllocateVM reserves memory for a VM (rounded up to 2 GB allocation
// units), waking powered-down rank groups if needed. The returned
// Allocation carries the host physical base address of each AU.
func (d *Device) AllocateVM(vm VMID, host HostID, bytes int64, now Time) (Allocation, error) {
	return d.dtl.AllocateVM(vm, host, bytes, now)
}

// DeallocateVM releases a VM's memory and runs the rank-level power-down
// consolidation check (§3.3).
func (d *Device) DeallocateVM(vm VMID, now Time) error {
	return d.dtl.DeallocateVM(vm, now)
}

// Read performs a host load and returns its end-to-end latency.
func (d *Device) Read(hpa HPA, now Time) (Time, error) {
	return d.port.Access(hpa, false, now)
}

// Write performs a host store and returns its end-to-end latency.
func (d *Device) Write(hpa HPA, now Time) (Time, error) {
	return d.port.Access(hpa, true, now)
}

// Tick advances time-driven machinery (profiling windows, migration
// retirement) without an access.
func (d *Device) Tick(now Time) { d.dtl.Tick(now) }

// EnableHotnessAwareSelfRefresh turns on the §3.4 engine.
func (d *Device) EnableHotnessAwareSelfRefresh(now Time) {
	d.dtl.Hotness().Enable(now)
}

// PowerSnapshot summarizes the device's instantaneous power situation.
type PowerSnapshot struct {
	// BackgroundPower is the summed per-rank background power in
	// normalized units (1.0 = one standby rank).
	BackgroundPower float64
	// RanksByState counts ranks per power state.
	RanksByState map[PowerState]int
	// ActiveRanksPerChannel counts non-MPSM ranks per channel.
	ActiveRanksPerChannel int
	// PoweredDownGroups counts rank groups in MPSM.
	PoweredDownGroups int
}

// String renders the snapshot compactly.
func (s PowerSnapshot) String() string {
	return fmt.Sprintf("bg=%.2f units, standby=%d selfRefresh=%d mpsm=%d, active/ch=%d, groupsDown=%d",
		s.BackgroundPower, s.RanksByState[Standby], s.RanksByState[SelfRefresh],
		s.RanksByState[MPSM], s.ActiveRanksPerChannel, s.PoweredDownGroups)
}

// PowerSnapshot reports the device's power situation at now.
func (d *Device) PowerSnapshot(now Time) PowerSnapshot {
	dev := d.dtl.Device()
	dev.AccountUpTo(now)
	return PowerSnapshot{
		BackgroundPower:       dev.BackgroundPowerNow(),
		RanksByState:          dev.CountByState(),
		ActiveRanksPerChannel: d.dtl.ActiveRanksPerChannel(),
		PoweredDownGroups:     d.dtl.PoweredDownGroups(),
	}
}

// EnergyReport summarizes background energy split by state since time zero.
type EnergyReport struct {
	StandbyEnergy     float64 // normalized units x ns
	SelfRefreshEnergy float64
	MPSMEnergy        float64
	BytesMigrated     int64
}

// Total sums all background energy.
func (r EnergyReport) Total() float64 {
	return r.StandbyEnergy + r.SelfRefreshEnergy + r.MPSMEnergy
}

// EnergyReport integrates background energy up to now.
func (d *Device) EnergyReport(now Time) EnergyReport {
	dev := d.dtl.Device()
	dev.AccountUpTo(now)
	st, sr, mp := dev.BackgroundEnergy()
	return EnergyReport{
		StandbyEnergy:     st,
		SelfRefreshEnergy: sr,
		MPSMEnergy:        mp,
		BytesMigrated:     d.dtl.Stats().BytesMigrated,
	}
}

// Stats exposes DTL counters.
func (d *Device) Stats() core.Stats { return d.dtl.Stats() }

// SMCStats exposes segment-mapping-cache counters.
func (d *Device) SMCStats() core.SMCStats { return d.dtl.SMCStats() }

// AMAT evaluates the §6.1 average-memory-access-time model with the
// device's measured SMC miss ratios.
func (d *Device) AMAT() core.AMATModel { return d.port.AMAT() }

// MeanLatency reports the observed average end-to-end access latency (ns).
func (d *Device) MeanLatency() float64 { return d.port.MeanLatency() }

// AllocatedBytes reports bytes currently reserved by VMs.
func (d *Device) AllocatedBytes() int64 { return d.dtl.AllocatedBytes() }

// LiveVMs reports the number of allocated VMs.
func (d *Device) LiveVMs() int { return d.dtl.LiveVMs() }

// Core exposes the underlying translation layer for advanced callers
// (experiments, tests).
func (d *Device) Core() *core.DTL { return d.dtl }

// Telemetry re-exports, so observability consumers need only this package.
type (
	// Registry is the device's hierarchical metrics registry.
	Registry = telemetry.Registry
	// Tracer records structured events and per-rank power timelines.
	Tracer = telemetry.Tracer
)

// Registry returns the device's always-on metrics registry. Every counter
// behind Stats() lives here; callers may add their own metrics and stream
// the registry as CSV on a sim interval timer (Registry.StreamTo, then
// StreamSampler.Start).
func (d *Device) Registry() *Registry { return d.dtl.Registry() }

// StartTrace attaches a new event tracer sized for this device and returns
// it. The tracer keeps no copy of its events: attach a
// telemetry.TraceStream (Tracer.AttachStream) right after starting and
// every record is written to it as JSONL the moment it happens. Call Finish
// on the tracer at the run horizon; telemetry.ConvertJSONL then turns the
// finished stream into a Chrome trace_event file or an events CSV. Tracing
// costs nothing until started.
func (d *Device) StartTrace(now Time) *Tracer {
	return d.dtl.StartTrace(now)
}

// StopTrace detaches the current tracer, restoring the zero-cost path.
func (d *Device) StopTrace() { d.dtl.AttachTracer(nil) }

// CheckInvariants verifies internal consistency (for tests).
func (d *Device) CheckInvariants() error { return d.dtl.CheckInvariants() }

// RetireRank permanently takes a rank offline (reliability extension):
// live segments are drained to surviving ranks of the same channel, the
// capacity is removed from the allocator, and the rank is powered off.
func (d *Device) RetireRank(channel, rank int, now Time) error {
	return d.dtl.RetireRank(dram.RankID{Channel: channel, Rank: rank}, now)
}

// UsableBytes reports capacity minus retired ranks.
func (d *Device) UsableBytes() int64 { return d.dtl.UsableBytes() }

// SaveMetadata checkpoints the durable controller state (mapping tables,
// allocation state, rank power states) so a restarted controller can
// resume serving the host's address space (availability extension).
func (d *Device) SaveMetadata(w io.Writer) error { return d.dtl.SaveMetadata(w) }

// Restore rebuilds a device from a metadata snapshot produced by
// SaveMetadata, using the same configuration options as Open.
func Restore(r io.Reader, opts ...Option) (*Device, error) {
	o := options{geometry: Geometry1TB(), linkLat: CXLMemoryLatency}
	for _, fn := range opts {
		fn(&o)
	}
	var cfg core.Config
	if o.cfg != nil {
		cfg = *o.cfg
	} else {
		cfg = core.DefaultConfig(o.geometry)
	}
	d, err := core.LoadMetadata(r, cfg)
	if err != nil {
		return nil, fmt.Errorf("dtl: %w", err)
	}
	port, err := cxl.NewPort(d, o.linkLat)
	if err != nil {
		return nil, fmt.Errorf("dtl: %w", err)
	}
	return &Device{port: port, dtl: d}, nil
}

// MetadataSizes returns the Table 5 structure-size model for the device.
func (d *Device) MetadataSizes() core.StructureSizes { return d.dtl.Config().Sizes() }

// ControllerEstimate returns the Table 6 power/area model at techNm.
func (d *Device) ControllerEstimate(techNm float64) core.ControllerEstimate {
	return d.dtl.Config().Controller(techNm)
}
