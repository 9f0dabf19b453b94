package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list;
// TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports. Every number is host
// time or host memory: the simulator's own cost, never simulated time.
//
// The bounds follow the host's noise, not a target. On a shared 2-vCPU VM
// the CPU itself speeds up and slows down by 15-30% over minutes (process
// CPU time tracks wall time, and steal stays near 0): replay, whose work
// does not depend on the seed, had a 25 s run take 3.0 s a pass, a run four
// minutes later 4.0 s, and one four minutes after that 3.0 s again. Ten-run
// spreads of wall_s reached 17% on replay and 15% on schedule, and of peak
// RSS, which moves with where GC cycles fall, 13% on schedule. alloc_mib
// depends only on the inputs, but schedule's six inputs allocate 632-746 MiB
// a pass each, so its spread reached 4%. setup_s has the largest bound, as
// set-ups of a few microseconds vary most.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.20},
	{"alloc_mib", "MiB", "lower", 0.10},
}

// perLayer are the metrics a traced run reports, measured by timing calls
// into each layer's public functions from outside. A layer a workload does
// not drive on its own reads 0 (core.* on replay, trace.* on suite, ...).
var perLayer = []metricDef{
	{Name: "accesses_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.next_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.share", Unit: "fraction", Better: "lower"},
	{Name: "dram.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "dram.share", Unit: "fraction", Better: "lower"},
	{Name: "memctrl.access_ns", Unit: "ns", Better: "lower"},
	{Name: "memctrl.share", Unit: "fraction", Better: "lower"},
	{Name: "memctrl.row_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "memctrl.wakeups", Unit: "count", Better: "lower"},
	{Name: "core.access_ns", Unit: "ns", Better: "lower"},
	{Name: "core.share", Unit: "fraction", Better: "lower"},
	{Name: "core.access_migrating_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.access_migrating_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "core.access_idle_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.access_idle_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "core.access_migrating_samples", Unit: "count", Better: "higher"},
	{Name: "core.access_idle_samples", Unit: "count", Better: "higher"},
	{Name: "core.migrating_frac", Unit: "fraction", Better: "lower"},
	{Name: "core.inflight_mean", Unit: "count", Better: "lower"},
	{Name: "core.mig_enqueued", Unit: "count", Better: "lower"},
	{Name: "core.mig_write_conflicts", Unit: "count", Better: "lower"},
	{Name: "core.mig_aborts", Unit: "count", Better: "lower"},
	{Name: "core.smc_l1_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.smc_l2_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.sr_enters", Unit: "count", Better: "higher"},
	{Name: "core.sr_exits", Unit: "count", Better: "lower"},
	{Name: "experiments.fig2.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig5.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig9.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig10.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig12.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig13.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.table4.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.amat.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.abl-segsize.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.abl-smc.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.abl-threshold.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.abl-tsp.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.faults.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.rack.wall_s", Unit: "s", Better: "lower"},
	{Name: "experiments.other.wall_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.trace_mib", Unit: "MiB", Better: "lower"},
	{Name: "telemetry.metrics_mib", Unit: "MiB", Better: "lower"},
	{Name: "telemetry.ledger_mib", Unit: "MiB", Better: "lower"},
	{Name: "telemetry.sinks_overhead_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower"},
}

// metricUnit looks a metric's unit up in either list.
func metricUnit(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// median is statistics.median: the middle value, or the mean of the two
// middle values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so the spreads printed here are the ones a reader
// recomputes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// percentile is the nearest-rank percentile of ds, in nanoseconds.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p * float64(len(s))))
	if k < 1 {
		k = 1
	} else if k > len(s) {
		k = len(s)
	}
	return float64(s[k-1].Nanoseconds())
}

// medians is each list's median.
func medians(xss [][]float64) []float64 {
	out := make([]float64, 0, len(xss))
	for _, xs := range xss {
		if len(xs) > 0 {
			out = append(out, median(xs))
		}
	}
	return out
}

// meanOfMedians is the mean of the lists' medians.
func meanOfMedians(xss [][]float64) float64 {
	ms := medians(xss)
	if len(ms) == 0 {
		return 0
	}
	var sum float64
	for _, m := range ms {
		sum += m
	}
	return sum / float64(len(ms))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
