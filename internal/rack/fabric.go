// Package rack composes N independent core.DTL expanders into one
// rack-scale memory pool behind a CXL fabric, the DRackSim-style topology
// the ROADMAP's rack-scale item names: every expander keeps its own
// translation layer, power engine, and health plane, while a shared fabric
// model prices the switch hops and link bandwidth that cross-expander
// traffic pays, and a global allocator (allocator.go) turns power
// management into a placement problem.
//
// # Topology and cost model
//
// The rack is a star: every compute host owns a root port attached to one
// expander (its affinity expander, vm % N for VM-driven placement), and a
// single rack switch connects the expanders. An access that stays on the
// affinity expander travels the direct-attached path already priced by the
// core CXL latency model and pays nothing extra here. An access to any
// other expander crosses the switch — one hop out, one hop back — and pays
//
//	fabricLat = 2×HopLatency + transfer(64B) [×2 when the link is busy]
//
// where transfer(b) = b/BandwidthGBs nanoseconds (1 GB/s ≈ 1 B/ns). The
// doubling is the bandwidth share: while an inter-expander copy holds the
// link, foreground transfers run at half rate. Inter-expander segment
// copies serialize on the same link — a copy starts when the link frees up
// and holds it for transfer(bytes) — which is how concurrent copies share
// bandwidth deterministically.
//
// Every fabric nanosecond and every copy's energy is charged into the
// telemetry ledger: CauseFabricStall for foreground cross-expander
// latency (time only; link energy is outside the DRAM energy proxy) and
// CauseFabricCopy for migration transfers (ActivePowerPerGBs × bytes, the
// same slope intra-expander migration energy uses), so rack runs keep the
// ledger conservation identities.
//
// # Determinism
//
// The fabric is serial: expanders are visited in index order everywhere
// (ticks, probes, rollups), fault injectors for all expanders schedule on
// the one shared sim.Engine (total event order), and the link model is a
// single busy-until clock. Identical configs therefore produce
// byte-identical artifacts, the same invariant the single-expander
// experiments enforce. Expanders never share mutable state: only the
// ledger, the link clock, and the allocator touch cross-expander state, all
// of it owned by the serial driver.
package rack

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/fault"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// Policy selects how the allocator places VMs across expanders.
type Policy int

const (
	// PolicySpread is first-fit spread: a VM lands on its affinity expander
	// (its host's direct-attached port, vm % N) when it fits, else on the
	// expander with the most free capacity. Load and heat spread across the
	// rack; almost no traffic crosses the fabric.
	PolicySpread Policy = iota
	// PolicyPack is power-aware packing: a VM lands on the most-utilized
	// expander that still fits it, regardless of affinity, and departures
	// trigger consolidation migrations. Whole expanders stay cold and their
	// ranks power down; the price is fabric latency on every access whose
	// VM was packed away from its affinity expander.
	PolicyPack
)

// String renders the policy the way the -fabric grammar spells it.
func (p Policy) String() string {
	switch p {
	case PolicySpread:
		return "spread"
	case PolicyPack:
		return "pack"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a grammar word back to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "spread":
		return PolicySpread, nil
	case "pack":
		return PolicyPack, nil
	default:
		return 0, fmt.Errorf("rack: unknown placement policy %q (want spread or pack)", s)
	}
}

// FabricConfig is the fabric cost model plus the placement policy, the
// parsed form of the dtlsim/dtlserved -fabric grammar.
type FabricConfig struct {
	// HopLatency is the per-switch-hop base latency; a remote access pays
	// two hops (request out, response back).
	HopLatency sim.Time
	// BandwidthGBs is the shared fabric link bandwidth in GB/s.
	BandwidthGBs float64
	// Policy is the allocator placement policy.
	Policy Policy
}

// DefaultFabricConfig models a CXL 2.0 switch: 150 ns per hop, one x8 link
// worth of bandwidth, spread placement.
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{HopLatency: 150 * sim.Nanosecond, BandwidthGBs: 32, Policy: PolicySpread}
}

// ParseFabric parses the -fabric grammar: semicolon-separated key=value
// pairs over keys hop (duration), gbs (float), and policy (spread|pack).
// Unset keys keep their DefaultFabricConfig values; unknown keys fail
// loudly, matching the -policy grammar convention. An empty string yields
// the default config.
//
//	hop=150ns;gbs=32;policy=pack
func ParseFabric(s string) (FabricConfig, error) {
	cfg := DefaultFabricConfig()
	for _, raw := range strings.Split(s, ";") {
		part := strings.TrimSpace(raw)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return FabricConfig{}, fmt.Errorf("rack: bad fabric term %q (want key=value)", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "hop":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return FabricConfig{}, fmt.Errorf("rack: bad hop latency %q (want a non-negative duration)", val)
			}
			cfg.HopLatency = sim.Time(d.Nanoseconds())
		case "gbs":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 1) {
				return FabricConfig{}, fmt.Errorf("rack: bad bandwidth %q (want a positive GB/s float)", val)
			}
			cfg.BandwidthGBs = f
		case "policy":
			p, err := ParsePolicy(val)
			if err != nil {
				return FabricConfig{}, err
			}
			cfg.Policy = p
		default:
			return FabricConfig{}, fmt.Errorf("rack: unknown fabric key %q in %q (known: hop, gbs, policy)", key, part)
		}
	}
	return cfg, nil
}

// MaxExpanders bounds the rack size: beyond this a single switch tier
// stops being a credible topology.
const MaxExpanders = 64

// Config sizes a rack.
type Config struct {
	// Expanders is the number of identical expanders behind the fabric.
	Expanders int
	// Expander is the per-expander DTL configuration.
	Expander core.Config
	// Fabric is the fabric cost model and placement policy.
	Fabric FabricConfig
}

// Expander is one pooled-memory device and its translation layer.
type Expander struct {
	ID  int
	DTL *core.DTL
}

// Fabric composes N expanders behind the shared switch: it owns the
// deterministic engine fault processes schedule on, the link clock, the
// rack-level telemetry registry, and (when attribution is on) the rack
// ledger and tracer that merge every expander's local numbering into one
// rack-global rank space.
type Fabric struct {
	cfg  Config
	exps []*Expander
	eng  *sim.Engine
	reg  *telemetry.Registry

	tracer *telemetry.Tracer
	ledger *telemetry.Ledger

	linkBusyUntil sim.Time
	slope         float64 // copy-energy slope (ActivePowerPerGBs)

	crossAccesses *telemetry.Counter
	stallNs       *telemetry.Counter
	copies        *telemetry.Counter
	bytesCopied   *telemetry.Counter
	copyNs        *telemetry.Counter
}

// New builds a rack of cfg.Expanders identical expanders. Each expander
// gets its own core.DTL (and device); the fabric wires rack-level rollup
// gauges over all of them.
func New(cfg Config) (*Fabric, error) {
	if cfg.Expanders < 1 || cfg.Expanders > MaxExpanders {
		return nil, fmt.Errorf("rack: expander count %d outside [1, %d]", cfg.Expanders, MaxExpanders)
	}
	if cfg.Fabric.HopLatency < 0 {
		return nil, fmt.Errorf("rack: negative hop latency %v", cfg.Fabric.HopLatency)
	}
	if cfg.Fabric.BandwidthGBs <= 0 {
		return nil, fmt.Errorf("rack: fabric bandwidth %v GB/s must be positive", cfg.Fabric.BandwidthGBs)
	}
	f := &Fabric{cfg: cfg, eng: sim.NewEngine(), reg: telemetry.NewRegistry()}
	for x := 0; x < cfg.Expanders; x++ {
		d, err := core.New(cfg.Expander)
		if err != nil {
			return nil, fmt.Errorf("rack: building expander %d: %w", x, err)
		}
		// Fresh expanders settle straight to their power floor instead of
		// idling fully awake until a first deallocation. The floor depends
		// on the policy: spread keeps the §3.3 per-channel active floor
		// (every expander serves its affinity VMs soon), while pack parks
		// empty expanders entirely — the cold pool is the pack policy's
		// whole win, and core's floor is a per-device invariant the rack
		// allocator deliberately lifts (Allocator re-parks drained
		// expanders the same way).
		if cfg.Fabric.Policy == PolicyPack {
			if err := d.Park(0); err != nil {
				return nil, fmt.Errorf("rack: parking expander %d: %w", x, err)
			}
		} else {
			d.PowerDownIdle(0)
		}
		f.exps = append(f.exps, &Expander{ID: x, DTL: d})
	}
	f.slope = f.exps[0].DTL.Device().Power().ActivePowerPerGBs
	f.registerGauges()
	return f, nil
}

// registerGauges publishes the rack rollups: per-expander and aggregate
// power/energy/residency views, plus fabric traffic counters. Names follow
// the core.* convention with an x<N> segment for per-expander series.
func (f *Fabric) registerGauges() {
	actives := func(d *core.DTL) float64 {
		g := d.Config().Geometry
		n := 0
		for ch := 0; ch < g.Channels; ch++ {
			for rk := 0; rk < g.RanksPerChannel; rk++ {
				if d.Device().State(dram.RankID{Channel: ch, Rank: rk}) == dram.Standby {
					n++
				}
			}
		}
		return float64(n)
	}
	for _, e := range f.exps {
		d := e.DTL
		prefix := fmt.Sprintf("rack.x%d.", e.ID)
		f.reg.GaugeFunc(prefix+"active_ranks", func() float64 { return actives(d) })
		f.reg.GaugeFunc(prefix+"allocated_bytes", func() float64 { return float64(d.AllocatedBytes()) })
		f.reg.GaugeFunc(prefix+"live_vms", func() float64 { return float64(d.LiveVMs()) })
		f.reg.GaugeFunc(prefix+"bg_power", func() float64 { return d.Device().BackgroundPowerNow() })
	}
	f.reg.GaugeFunc("rack.active_ranks", func() float64 {
		var n float64
		for _, e := range f.exps {
			n += actives(e.DTL)
		}
		return n
	})
	f.reg.GaugeFunc("rack.allocated_bytes", func() float64 {
		var n float64
		for _, e := range f.exps {
			n += float64(e.DTL.AllocatedBytes())
		}
		return n
	})
	f.reg.GaugeFunc("rack.live_vms", func() float64 {
		var n float64
		for _, e := range f.exps {
			n += float64(e.DTL.LiveVMs())
		}
		return n
	})
	f.reg.GaugeFunc("rack.bg_power", func() float64 {
		var p float64
		for _, e := range f.exps {
			p += e.DTL.Device().BackgroundPowerNow()
		}
		return p
	})
	f.crossAccesses = f.reg.Counter("rack.fabric.cross_accesses")
	f.stallNs = f.reg.Counter("rack.fabric.stall_ns")
	f.copies = f.reg.Counter("rack.fabric.copies")
	f.bytesCopied = f.reg.Counter("rack.fabric.bytes_copied")
	f.copyNs = f.reg.Counter("rack.fabric.copy_ns")
}

// Config returns the rack configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Expanders returns the expanders in index order.
func (f *Fabric) Expanders() []*Expander { return f.exps }

// Expander returns expander x.
func (f *Fabric) Expander(x int) *Expander { return f.exps[x] }

// Engine returns the rack's shared deterministic engine (fault processes
// for every expander schedule here, giving one total event order).
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Registry returns the rack-level rollup registry.
func (f *Fabric) Registry() *telemetry.Registry { return f.reg }

// Affinity reports a VM's direct-attached expander: the one its host's
// root port reaches without crossing the rack switch.
func (f *Fabric) Affinity(vm core.VMID) int {
	x := int(vm) % f.cfg.Expanders
	if x < 0 {
		x += f.cfg.Expanders
	}
	return x
}

// TotalRanks reports the rack-global rank count.
func (f *Fabric) TotalRanks() int {
	return f.cfg.Expanders * f.cfg.Expander.Geometry.TotalRanks()
}

// rackRank maps an expander-local global rank to the rack-global rank
// space: the rack is rendered as one super-device whose channel list is
// the concatenation of every expander's channels, so rank*totalChannels +
// (expander*channels + channel) keeps the tracer's "rank-major" numbering
// and dtlstat's chN/rkM labels meaningful (channels [4x, 4x+4) belong to
// expander x on a 4-channel expander).
func (f *Fabric) rackRank(x, localGlobalRank int) int {
	chPer := f.cfg.Expander.Geometry.Channels
	ch, rk := localGlobalRank%chPer, localGlobalRank/chPer
	return rk*(f.cfg.Expanders*chPer) + x*chPer + ch
}

// transferNs prices moving bytes over the link: bytes / BandwidthGBs
// nanoseconds (1 GB/s ≈ 1 B/ns).
func (f *Fabric) transferNs(bytes int64) sim.Time {
	return sim.Time(float64(bytes) / f.cfg.Fabric.BandwidthGBs)
}

// accessTransferBytes is the fabric payload of one foreground access (a
// cache line).
const accessTransferBytes = 64

// Access services one foreground access for vm on expander x at virtual
// time now, adding the fabric cost when x is not the VM's affinity
// expander: two switch hops plus the cache-line transfer, doubled while an
// inter-expander copy holds the link (half-rate bandwidth share). The
// fabric latency is charged to (vm, rack, fabric-stall) in the rack ledger
// — time only, no energy — and folded into the returned total.
func (f *Fabric) Access(vm core.VMID, x int, hpa dram.HPA, write bool, now sim.Time) (core.AccessResult, sim.Time, error) {
	res, err := f.exps[x].DTL.Access(hpa, write, now)
	if err != nil {
		return res, 0, err
	}
	if x == f.Affinity(vm) {
		return res, 0, nil
	}
	flat := 2*f.cfg.Fabric.HopLatency + f.transferNs(accessTransferBytes)
	if f.linkBusyUntil > now {
		flat += f.transferNs(accessTransferBytes)
	}
	f.crossAccesses.Add(1)
	f.stallNs.Add(int64(flat))
	if f.ledger != nil {
		start := now + res.TotalLat()
		f.ledger.Span(int64(vm), -1, telemetry.CauseFabricStall, start, start+flat, 0)
		f.tracer.AttrSpan(int64(vm), -1, telemetry.CauseFabricStall.String(), start, start+flat, 0)
	}
	return res, flat, nil
}

// copyOver charges one inter-expander transfer of bytes for vm starting at
// now: the copy queues behind whatever already holds the link (concurrent
// copies serialize — that is the deterministic bandwidth share), holds it
// for transfer(bytes), and charges the whole wait+transfer window to
// (vm, rack, fabric-copy) with ActivePowerPerGBs×bytes of energy. Returns
// when the copy completes.
func (f *Fabric) copyOver(vm core.VMID, src, dst int, bytes int64, now sim.Time) sim.Time {
	start := now
	if f.linkBusyUntil > start {
		start = f.linkBusyUntil
	}
	done := start + f.transferNs(bytes)
	f.linkBusyUntil = done
	f.copies.Add(1)
	f.bytesCopied.Add(bytes)
	f.copyNs.Add(int64(done - now))
	energy := f.slope * float64(bytes)
	if f.ledger != nil {
		f.ledger.Span(int64(vm), -1, telemetry.CauseFabricCopy, now, done, energy)
		f.tracer.AttrSpan(int64(vm), -1, telemetry.CauseFabricCopy.String(), now, done, energy)
	}
	f.tracer.Migration(-1, int64(src), int64(dst), "fabric", now, done)
	return done
}

// AccountUpTo settles every expander's background-energy accounting.
func (f *Fabric) AccountUpTo(now sim.Time) {
	for _, e := range f.exps {
		e.DTL.Device().AccountUpTo(now)
	}
}

// BytesMigrated sums intra-expander migration traffic over the rack
// (inter-expander copies are counted by the fabric counters instead).
func (f *Fabric) BytesMigrated() int64 {
	var n int64
	for _, e := range f.exps {
		n += e.DTL.Stats().BytesMigrated
	}
	return n
}

// StartFaults validates spec against the rack, splits it per expander, and
// arms one injector per targeted expander on the shared engine — the rack
// front end for the fault grammar's xN/ scope. Unscoped clauses land on
// expander 0 (Spec.ForExpander), so single-expander specs keep their
// meaning. Injectors are returned in expander order for stats collection.
func (f *Fabric) StartFaults(spec fault.Spec, horizon sim.Time) ([]*fault.Injector, error) {
	if mx := spec.MaxExpander(); mx >= f.cfg.Expanders {
		return nil, fmt.Errorf("rack: fault spec targets expander x%d but the rack has %d expanders", mx, f.cfg.Expanders)
	}
	var injs []*fault.Injector
	for _, e := range f.exps {
		sub := spec.ForExpander(e.ID)
		if len(sub.Clauses) == 0 {
			continue
		}
		inj, err := fault.NewInjector(sub, e.DTL.Device(), f.eng)
		if err != nil {
			return nil, fmt.Errorf("rack: expander %d: %w", e.ID, err)
		}
		inj.Start(horizon)
		injs = append(injs, inj)
	}
	return injs, nil
}

// StartTrace builds a rack-global tracer (one power timeline per rack
// rank, expander channels concatenated), seeds current non-standby states,
// attaches it, and returns it.
func (f *Fabric) StartTrace(now sim.Time) *telemetry.Tracer {
	g := f.cfg.Expander.Geometry
	tr := telemetry.NewTracer(telemetry.TracerConfig{
		Ranks:    f.TotalRanks(),
		Channels: f.cfg.Expanders * g.Channels,
		Start:    now,
	})
	for _, e := range f.exps {
		for ch := 0; ch < g.Channels; ch++ {
			for rk := 0; rk < g.RanksPerChannel; rk++ {
				if st := e.DTL.Device().State(dram.RankID{Channel: ch, Rank: rk}); st != dram.Standby {
					tr.PowerTransition(f.rackRank(e.ID, rk*g.Channels+ch), st, now)
				}
			}
		}
	}
	f.AttachTracer(tr)
	return tr
}

// AttachTracer wires every expander's power-transition hook into tr with
// rack-global rank numbering (nil detaches). The expanders' own DTL
// tracers stay detached — their internal events carry expander-local rank
// ids that would collide in a shared trace; the rack trace carries power
// timelines, fabric events, and the final ledger dump instead.
func (f *Fabric) AttachTracer(tr *telemetry.Tracer) {
	f.tracer = tr
	for _, e := range f.exps {
		if tr == nil {
			e.DTL.Device().OnTransition(nil)
			continue
		}
		x := e.ID
		chPer := f.cfg.Expander.Geometry.Channels
		e.DTL.Device().OnTransition(func(id dram.RankID, from, to dram.PowerState, at, ready sim.Time) {
			tr.PowerTransition(f.rackRank(x, id.Rank*chPer+id.Channel), to, at)
		})
	}
}

// Tracer reports the attached rack tracer (nil when tracing is off).
func (f *Fabric) Tracer() *telemetry.Tracer { return f.tracer }

// StartLedger builds the rack attribution ledger (rack-global ranks),
// attaches a private per-expander ledger to every DTL (expander charges
// use local rank ids; FinishAttribution folds them into rack numbering),
// and returns the rack ledger.
func (f *Fabric) StartLedger() *telemetry.Ledger {
	f.ledger = telemetry.NewLedger(f.TotalRanks())
	for _, e := range f.exps {
		e.DTL.StartLedger()
	}
	return f.ledger
}

// AttachLedger installs l as the rack ledger; nil detaches rack and
// per-expander attribution alike.
func (f *Fabric) AttachLedger(l *telemetry.Ledger) {
	f.ledger = l
	if l == nil {
		for _, e := range f.exps {
			e.DTL.AttachLedger(nil)
		}
	}
}

// Ledger reports the rack ledger (nil when attribution is off).
func (f *Fabric) Ledger() *telemetry.Ledger { return f.ledger }

// FinishAttribution completes the rack bill after tr.Finish: the rack
// tracer's power spans become background residency energy, every
// expander's private ledger folds into led with expander-local ranks
// remapped to rack-global ones (rank -1 charges stay unscoped), and the
// merged cells are dumped into the trace. The fold visits expanders and
// cells in canonical order, so identical runs fold to identical bytes.
func (f *Fabric) FinishAttribution(tr *telemetry.Tracer, led *telemetry.Ledger, horizon sim.Time) {
	led.ChargeResidency(tr)
	g := f.cfg.Expander.Geometry
	for _, e := range f.exps {
		sub := e.DTL.Ledger()
		if sub == nil {
			continue
		}
		for _, ent := range sub.Snapshot().Entries {
			cause, ok := telemetry.ParseCause(ent.Cause)
			if !ok {
				panic(fmt.Sprintf("rack: expander %d ledger has unknown cause %q", e.ID, ent.Cause))
			}
			rank := -1
			if ent.Rank >= 0 {
				if ent.Rank >= g.TotalRanks() {
					panic(fmt.Sprintf("rack: expander %d ledger rank %d outside geometry", e.ID, ent.Rank))
				}
				rank = f.rackRank(e.ID, ent.Rank)
			}
			led.Charge(ent.VM, rank, cause, ent.LatNs, ent.Energy)
		}
	}
	led.EmitTo(tr, horizon)
}
