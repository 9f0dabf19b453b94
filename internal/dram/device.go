package dram

import (
	"fmt"

	"dtl/internal/sim"
)

// RankID identifies a rank by channel and rank index within that channel.
type RankID struct {
	Channel int
	Rank    int
}

// String implements fmt.Stringer.
func (r RankID) String() string { return fmt.Sprintf("ch%d/rk%d", r.Channel, r.Rank) }

// rankStatus is the per-rank bookkeeping the device maintains.
type rankStatus struct {
	state PowerState
	// readyAt is the earliest time the rank can accept a command (it covers
	// power-state transition penalties).
	readyAt sim.Time
	// stateSince is when the rank entered its current state, for
	// energy-by-state accounting.
	stateSince sim.Time
	// energyByState accumulates normalized background energy
	// (units × nanoseconds) per state.
	energyByState [3]float64
	// transitions counts state changes, for diagnostics.
	transitions int
}

// Device tracks the power state and background-energy consumption of every
// rank in the CXL memory device. Command timing is modeled by the memory
// controller (package memctrl); Device owns the state machine and the
// power/energy ledger so that DTL can drive power transitions directly.
type Device struct {
	geom  Geometry
	codec *AddressCodec
	power PowerModel
	tim   Timing
	ranks []rankStatus // indexed by global rank id (rank*Channels + channel)

	onTransition TransitionHook

	// fault is lazily allocated on the first injected fault (see fault.go);
	// fault-free devices never touch it.
	fault   *faultState
	onFault FaultHook
}

// TransitionHook observes every power-state change as it is applied. readyAt
// is when the rank becomes usable in the new state (entry/exit penalty
// included). Hooks must not call back into the device.
type TransitionHook func(id RankID, from, to PowerState, at, readyAt sim.Time)

// NewDevice builds a device in the all-standby state at time zero.
func NewDevice(g Geometry, pm PowerModel, tm Timing) (*Device, error) {
	codec, err := NewAddressCodec(g)
	if err != nil {
		return nil, err
	}
	d := &Device{
		geom:  g,
		codec: codec,
		power: pm,
		tim:   tm,
		ranks: make([]rankStatus, g.TotalRanks()),
	}
	return d, nil
}

// MustDevice is NewDevice that panics on error.
func MustDevice(g Geometry, pm PowerModel, tm Timing) *Device {
	d, err := NewDevice(g, pm, tm)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Codec returns the device's address codec.
func (d *Device) Codec() *AddressCodec { return d.codec }

// Power returns the power model.
func (d *Device) Power() PowerModel { return d.power }

// Timing returns the timing parameters.
func (d *Device) Timing() Timing { return d.tim }

func (d *Device) rank(id RankID) *rankStatus {
	if id.Channel < 0 || id.Channel >= d.geom.Channels || id.Rank < 0 || id.Rank >= d.geom.RanksPerChannel {
		panic(fmt.Sprintf("dram: rank %v out of range for %v", id, d.geom))
	}
	return &d.ranks[d.codec.GlobalRank(id.Channel, id.Rank)]
}

// State reports the power state of a rank.
func (d *Device) State(id RankID) PowerState { return d.rank(id).state }

// StateAndReady reports a rank's power state and the earliest time it can
// accept a command (covering any in-flight power transition) with one rank
// lookup, for the controller's per-access path.
func (d *Device) StateAndReady(id RankID) (PowerState, sim.Time) {
	r := d.rank(id)
	return r.state, r.readyAt
}

// Transitions reports how many power-state changes the rank has undergone.
func (d *Device) Transitions(id RankID) int { return d.rank(id).transitions }

// SetState transitions a rank to the target power state at time now,
// applying the appropriate entry/exit penalty to the rank's readiness.
// Transitioning out of MPSM loses data by definition; the caller (DTL)
// guarantees no live segments remain on an MPSM rank.
//
// It returns the time at which the rank becomes usable in the new state.
func (d *Device) SetState(id RankID, target PowerState, now sim.Time) sim.Time {
	r := d.rank(id)
	if r.state == target {
		return maxTime(now, r.readyAt)
	}
	d.accountRank(r, now)

	var penalty sim.Time
	var wakeFault sim.Time
	switch {
	case r.state == SelfRefresh && target == Standby:
		penalty = d.tim.SelfRefreshExit
		if d.fault != nil {
			if extra := d.fault.ranks[d.codec.GlobalRank(id.Channel, id.Rank)].wakeExtra; extra > 0 {
				penalty += extra
				wakeFault = extra
			}
		}
	case r.state == MPSM && target == Standby:
		penalty = d.tim.MPSMExit
	case target == SelfRefresh:
		penalty = d.tim.SelfRefreshEnter
	case target == MPSM:
		penalty = d.tim.MPSMEnter
	}
	// Direct SR<->MPSM hops route through standby implicitly; the penalties
	// above already cover the dominant component.

	from := r.state
	r.state = target
	r.stateSince = now
	r.transitions++
	r.readyAt = maxTime(now, r.readyAt) + penalty
	if d.onTransition != nil {
		d.onTransition(id, from, target, now, r.readyAt)
	}
	if wakeFault > 0 {
		d.raise(FaultEvent{Kind: FaultWake, Rank: id, DSN: -1, Count: 1, Extra: wakeFault, At: now})
	}
	return r.readyAt
}

// OnTransition installs the power-transition observer (nil uninstalls it).
// The telemetry layer uses it to build per-rank power timelines.
func (d *Device) OnTransition(h TransitionHook) { d.onTransition = h }

// accountRank folds the background energy accumulated in the current state
// up to now into the per-state ledger.
func (d *Device) accountRank(r *rankStatus, now sim.Time) {
	if now > r.stateSince {
		r.energyByState[r.state] += d.power.Background(r.state) * float64(now-r.stateSince)
		r.stateSince = now
	}
}

// AccountUpTo folds background energy for every rank up to now. Call it
// before reading energy totals.
func (d *Device) AccountUpTo(now sim.Time) {
	for i := range d.ranks {
		d.accountRank(&d.ranks[i], now)
	}
}

// BackgroundEnergy reports the total normalized background energy
// (units × ns) accumulated across all ranks, split by state.
// AccountUpTo must have been called at the evaluation horizon.
func (d *Device) BackgroundEnergy() (standby, selfRefresh, mpsm float64) {
	for i := range d.ranks {
		standby += d.ranks[i].energyByState[Standby]
		selfRefresh += d.ranks[i].energyByState[SelfRefresh]
		mpsm += d.ranks[i].energyByState[MPSM]
	}
	return standby, selfRefresh, mpsm
}

// BackgroundPowerNow reports the instantaneous background power (normalized
// units) summed over all ranks.
func (d *Device) BackgroundPowerNow() float64 {
	var p float64
	for i := range d.ranks {
		p += d.power.Background(d.ranks[i].state)
	}
	return p
}

// CountByState reports how many ranks are in each power state.
func (d *Device) CountByState() map[PowerState]int {
	m := make(map[PowerState]int, 3)
	for i := range d.ranks {
		m[d.ranks[i].state]++
	}
	return m
}

// RanksIn returns the IDs of all ranks currently in state s, in
// (rank, channel) order.
func (d *Device) RanksIn(s PowerState) []RankID {
	var ids []RankID
	for rank := 0; rank < d.geom.RanksPerChannel; rank++ {
		for ch := 0; ch < d.geom.Channels; ch++ {
			if d.ranks[d.codec.GlobalRank(ch, rank)].state == s {
				ids = append(ids, RankID{Channel: ch, Rank: rank})
			}
		}
	}
	return ids
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
