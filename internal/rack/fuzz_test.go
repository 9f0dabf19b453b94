package rack

import (
	"math"
	"testing"
)

// FuzzParseFabric feeds arbitrary bytes to the -fabric grammar. ParseFabric
// must never panic, and every config it accepts must be usable: a finite
// positive bandwidth, a non-negative hop latency and a known policy. The
// seed corpus under testdata/fuzz/FuzzParseFabric holds the specs of this
// package's tests and the README.
func FuzzParseFabric(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseFabric(s)
		if err != nil {
			return
		}
		if !(cfg.BandwidthGBs > 0) || math.IsInf(cfg.BandwidthGBs, 0) {
			t.Fatalf("ParseFabric(%q) accepted bandwidth %v", s, cfg.BandwidthGBs)
		}
		if cfg.HopLatency < 0 {
			t.Fatalf("ParseFabric(%q) accepted hop latency %v", s, cfg.HopLatency)
		}
		if cfg.Policy != PolicySpread && cfg.Policy != PolicyPack {
			t.Fatalf("ParseFabric(%q) accepted policy %v", s, cfg.Policy)
		}
	})
}
