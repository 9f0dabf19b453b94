package experiments

import (
	"runtime"
	"testing"

	"dtl/internal/cxl"
	"dtl/internal/dram"
)

// TestReplayControllerAllocIndependentOfN checks that the raw replay streams:
// its heap allocation must not grow with the number of accesses, so ten
// times the accesses may cost at most a few pages more.
func TestReplayControllerAllocIndependentOfN(t *testing.T) {
	profiles := fig2Profiles(true)
	g := dram.Default1TB()
	alloc := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replayController(g, false, cxl.CXLMemoryLatency, profiles, n, 1, nil)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(1000) // warm up one-time allocations outside the measured runs
	small, large := alloc(20_000), alloc(200_000)
	if large > small && large-small >= 256<<10 {
		t.Fatalf("replayController allocates %d B at n=200k vs %d B at n=20k: %d B grows with n, want < 256 KiB",
			large, small, large-small)
	}
}
