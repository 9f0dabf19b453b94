// Package telemetry is the observability layer of the simulator: a
// virtual-time-aware metrics registry (counters, gauges, histogram-backed
// timers sampled into time series) and a structured event tracer (power
// transitions, segment migrations, SMC misses, scrub passes) with pluggable
// export sinks — JSONL, CSV, and Chrome trace_event JSON that opens directly
// in Perfetto or chrome://tracing.
//
// The package sits below the model packages that emit into it: it depends
// only on the sim clock, the metrics statistics helpers and dram (which
// imports only sim) for the power states it names and the Table 2 weights
// it charges, so memctrl, core and rack can emit into it without import
// cycles.
//
// Tracing is opt-in and zero-cost when disabled: every Tracer emit method is
// nil-receiver-safe and returns immediately on a nil *Tracer, so model code
// holds a possibly-nil tracer and calls it unconditionally on hot paths.
// Registry counters are plain in-process int64 increments and are always on;
// they replace the ad-hoc counters the model packages used to keep, with the
// legacy Stats() accessors retained as thin views over the registry.
package telemetry
