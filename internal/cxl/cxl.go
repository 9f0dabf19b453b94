// Package cxl models the host-visible access path to the CXL memory
// expander: a constant link/protocol latency (measured at 210 ns by the
// paper versus 121 ns native DRAM, Table 1) in front of the DTL-equipped
// device. It substitutes the paper's Quartz-based latency emulation: both
// treat remote access cost as a single additive constant.
package cxl

import (
	"fmt"

	"dtl/internal/core"
	"dtl/internal/dram"
	"dtl/internal/sim"
)

// Paper-measured access latencies (Table 1).
const (
	NativeDRAMLatency = 121 * sim.Nanosecond
	CXLMemoryLatency  = 210 * sim.Nanosecond
)

// Port is the host-side access point: every access pays the link latency,
// then the DTL translation and DRAM service time.
type Port struct {
	dtl     *core.DTL
	linkLat sim.Time

	accesses   int64
	totalLatNs int64
}

// NewPort attaches a host port with the given link latency to a DTL device.
func NewPort(d *core.DTL, linkLat sim.Time) (*Port, error) {
	if d == nil {
		return nil, fmt.Errorf("cxl: nil DTL")
	}
	if linkLat < 0 {
		return nil, fmt.Errorf("cxl: negative link latency %v", linkLat)
	}
	return &Port{dtl: d, linkLat: linkLat}, nil
}

// DTL returns the attached translation layer.
func (p *Port) DTL() *core.DTL { return p.dtl }

// LinkLatency returns the configured link latency.
func (p *Port) LinkLatency() sim.Time { return p.linkLat }

// Access performs one host load/store at virtual time now and returns the
// end-to-end latency (link + translation + DRAM service).
func (p *Port) Access(hpa dram.HPA, write bool, now sim.Time) (sim.Time, error) {
	res, err := p.dtl.Access(hpa, write, now+p.linkLat)
	if err != nil {
		return 0, err
	}
	lat := p.linkLat + res.TotalLat()
	p.accesses++
	p.totalLatNs += int64(lat)
	return lat, nil
}

// MeanLatency reports the average end-to-end access latency observed.
func (p *Port) MeanLatency() float64 {
	if p.accesses == 0 {
		return 0
	}
	return float64(p.totalLatNs) / float64(p.accesses)
}

// Accesses reports how many accesses the port has serviced.
func (p *Port) Accesses() int64 { return p.accesses }

// AMAT evaluates the §6.1 analytic model against the port's DTL using its
// measured segment-mapping-cache miss ratios.
func (p *Port) AMAT() core.AMATModel {
	return core.AMATFromConfig(p.linkLat, p.dtl.SMCStats())
}
