package core

import (
	"dtl/internal/sim"
)

// AMATModel evaluates the average memory access time equations of §6.1:
//
//	AMAT_CXL = CXL_mem_lat + AddrTranslation                      (Eq. 1)
//	AddrTranslation = L1 hit time
//	    + L1 miss ratio x (L2 hit time + L2 miss ratio x penalty) (Eq. 2)
//
// where the L2 miss penalty is two SRAM table reads plus one DRAM access to
// the segment mapping table.
type AMATModel struct {
	CXLMemLat sim.Time
	L1Hit     sim.Time
	L2Hit     sim.Time
	L1Miss    float64 // L1 SMC miss ratio
	L2Miss    float64 // L2 SMC miss ratio (conditional)
	Penalty   sim.Time
}

// AMATFromConfig builds the model from the controller's fixed SMC timing,
// the target link latency, and measured SMC miss ratios.
func AMATFromConfig(cxlLat sim.Time, stats SMCStats) AMATModel {
	return AMATModel{
		CXLMemLat: cxlLat,
		L1Hit:     l1SMCHit,
		L2Hit:     l2SMCHit,
		L1Miss:    stats.L1MissRatio(),
		L2Miss:    stats.L2MissRatio(),
		Penalty:   2*sramTableHit + dramTableMiss,
	}
}

// Translation returns the average address-translation latency in
// fractional nanoseconds (Eq. 2).
func (m AMATModel) Translation() float64 {
	return float64(m.L1Hit) +
		m.L1Miss*(float64(m.L2Hit)+m.L2Miss*float64(m.Penalty))
}

// AMAT returns the end-to-end average memory access time (Eq. 1).
func (m AMATModel) AMAT() float64 {
	return float64(m.CXLMemLat) + m.Translation()
}
