package dram

import (
	"fmt"
	"strconv"
	"strings"

	"dtl/internal/sim"
)

// PowerState is the JEDEC-visible power state of a DRAM rank.
type PowerState int

const (
	// Standby is the normal active/idle state: the rank responds to
	// commands and is refreshed by the controller. Normalized power 1.0.
	Standby PowerState = iota
	// SelfRefresh retains data with internal refresh and no external
	// clocking. Normalized power 0.2 (Table 2); exit costs ~ hundreds of ns.
	SelfRefresh
	// MPSM is the maximum power saving mode: no data retention, no response
	// to commands other than exit. Normalized power 0.068 (Table 2).
	MPSM
)

// String implements fmt.Stringer.
func (s PowerState) String() string {
	switch s {
	case Standby:
		return "standby"
	case SelfRefresh:
		return "self-refresh"
	case MPSM:
		return "mpsm"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// RetainsData reports whether the state preserves DRAM contents.
func (s PowerState) RetainsData() bool { return s != MPSM }

// PowerModel holds the normalized power parameters of Table 2 together with
// the active-power slope of Figure 11(b) and absolute scaling.
//
// All background powers are per rank, normalized so that one standby rank
// consumes 1.0 unit. WattsPerUnit converts units to watts for reporting; the
// default corresponds to a 4Rx4 DDR4-2933 128 GB DIMM rank (~1.25 W standby
// background including refresh).
type PowerModel struct {
	StandbyPower     float64 // per-rank background power in Standby (normalized 1.0)
	SelfRefreshPower float64 // per-rank background power in SelfRefresh
	MPSMPower        float64 // per-rank background power in MPSM
	// ActivePowerPerGBs is the additional (read+write) power per GB/s of
	// bandwidth delivered by a rank, in the same normalized units.
	// Figure 11(b) reports near-linear scaling of active power with
	// bandwidth utilization.
	ActivePowerPerGBs float64
	// WattsPerUnit converts normalized units into watts.
	WattsPerUnit float64
}

// DefaultPowerModel returns the Table 2 parameters. The active slope is
// chosen so that at the paper's CloudSuite operating point (~30 GB/s across
// the device, §5.2) active power is roughly a third of total baseline DRAM
// power, matching the Figure 13 breakdown where background power dominates.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		StandbyPower:      1.0,
		SelfRefreshPower:  0.2,
		MPSMPower:         0.068,
		ActivePowerPerGBs: 0.55,
		WattsPerUnit:      1.25,
	}
}

// Background reports the per-rank background power (normalized units) in s.
func (m PowerModel) Background(s PowerState) float64 {
	switch s {
	case Standby:
		return m.StandbyPower
	case SelfRefresh:
		return m.SelfRefreshPower
	case MPSM:
		return m.MPSMPower
	default:
		panic(fmt.Sprintf("dram: unknown power state %d", int(s)))
	}
}

// FormatPower renders a normalized power as Table 2 prints it: the shortest
// decimal that reads back exactly, with at least one fractional digit
// (1.0, 0.2, 0.068).
func FormatPower(p float64) string {
	s := strconv.FormatFloat(p, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// Active reports the active power (normalized units) for a rank delivering
// the given bandwidth in GB/s.
func (m PowerModel) Active(gbPerSec float64) float64 {
	if gbPerSec < 0 {
		panic(fmt.Sprintf("dram: negative bandwidth %f", gbPerSec))
	}
	return m.ActivePowerPerGBs * gbPerSec
}

// Timing collects the DDR4-like timing parameters used by the controller
// model. Values approximate DDR4-2933 and the transition penalties quoted in
// the paper (§2: self-refresh and MPSM exit are "hundreds of nanoseconds").
type Timing struct {
	TRCD  sim.Time // activate → column command
	TCL   sim.Time // column command → data
	TRP   sim.Time // precharge
	TRAS  sim.Time // activate → precharge minimum
	TBL   sim.Time // burst transfer time of one 64 B line on the bus
	TCCD  sim.Time // column-to-column, same bank group (bus occupancy floor)
	TRTR  sim.Time // rank-to-rank switch penalty on a shared channel bus
	TRFC  sim.Time // refresh cycle time (rank blocked per refresh)
	TREFI sim.Time // average refresh interval per rank
	TWR   sim.Time // write recovery: write burst → precharge
	TWTR  sim.Time // write-to-read bus turnaround
	TRTW  sim.Time // read-to-write bus turnaround

	SelfRefreshExit  sim.Time // tXS: self-refresh exit to first command
	MPSMExit         sim.Time // MPSM exit to first command
	MPSMEnter        sim.Time
	SelfRefreshEnter sim.Time

	// DegradedAccess is the extra per-access latency charged when the target
	// rank has suffered a whole-rank failure (retries, on-die repair reads)
	// until the DTL drains and retires it.
	DegradedAccess sim.Time
}

// DefaultTiming returns DDR4-2933-like parameters.
func DefaultTiming() Timing {
	return Timing{
		TRCD:             14 * sim.Nanosecond,
		TCL:              14 * sim.Nanosecond,
		TRP:              14 * sim.Nanosecond,
		TRAS:             32 * sim.Nanosecond,
		TBL:              3 * sim.Nanosecond, // 64B burst at ~23.4 GB/s pin rate
		TCCD:             5 * sim.Nanosecond,
		TRTR:             2 * sim.Nanosecond,
		TRFC:             350 * sim.Nanosecond,
		TREFI:            7800 * sim.Nanosecond,
		TWR:              15 * sim.Nanosecond,
		TWTR:             8 * sim.Nanosecond,
		TRTW:             4 * sim.Nanosecond,
		SelfRefreshExit:  400 * sim.Nanosecond,
		MPSMExit:         600 * sim.Nanosecond,
		MPSMEnter:        200 * sim.Nanosecond,
		SelfRefreshEnter: 100 * sim.Nanosecond,
		DegradedAccess:   2000 * sim.Nanosecond,
	}
}
