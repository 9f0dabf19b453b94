package experiments

import (
	"bufio"
	"fmt"
	"os"

	"dtl/internal/core"
	"dtl/internal/rack"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// attrSource is the device composition a telemetry run attaches to: one
// core.DTL expander or a rack.Fabric of them. Both own a registry, can
// source a trace and a cost ledger, and know how to complete the
// attribution bill at the horizon (the fabric folds its per-expander
// ledgers into rack-global rank numbering there).
type attrSource interface {
	StartTrace(capacity int, now sim.Time) *telemetry.Tracer
	StartLedger() *telemetry.Ledger
	AttachTracer(*telemetry.Tracer)
	AttachLedger(*telemetry.Ledger)
	Registry() *telemetry.Registry
	FinishAttribution(tr *telemetry.Tracer, led *telemetry.Ledger, horizon sim.Time)
}

// runTelemetry wires a metrics registry (and, for device-driven runs, the
// event tracer and the -watch publisher) to the sinks requested in Options. A
// nil *runTelemetry is valid and makes every method a no-op, so experiment
// loops call tick/finish unconditionally and pay nothing when observability
// is off.
type runTelemetry struct {
	tracePath   string
	metricsPath string
	ledgerPath  string

	src      attrSource // nil for registry-only runs (no tracer source)
	snapshot func(now sim.Time, done bool) WatchSnapshot
	reg      *telemetry.Registry
	tr       *telemetry.Tracer
	led      *telemetry.Ledger
	eng      *sim.Engine
	stop     func()
	horizon  sim.Time // run horizon for watch ETA; 0 = unknown

	// Chrome traces buffer in the tracer's ring and are written at finish;
	// jsonl/csv traces stream record by record through traceStream.
	traceFormat telemetry.TraceFormat
	traceFile   *os.File
	traceBuf    *bufio.Writer
	traceStream *telemetry.TraceStream
	traceErr    error // deferred os.Create failure, reported at finish

	// Metrics stream to the CSV file as rows are sampled (O(1) memory over
	// any horizon) rather than accumulating in the registry until finish.
	metricsFile *os.File
	metricsBuf  *bufio.Writer
	stream      *telemetry.StreamSampler
	metricsErr  error // deferred os.Create failure, reported at finish

	watch      chan WatchSnapshot
	watchLabel string
}

// telemetryFor attaches tracing, periodic metrics sampling, and the watch
// publisher to d per the Options, or returns nil when none was requested.
// defaultPeriod is the experiment's natural sampling granularity, used when
// the caller did not set SamplePeriod explicitly (horizons range from
// milliseconds of replay to six hours of schedule, so no single default fits
// all runs). horizon is the run end if the experiment knows it up front (for
// the watch ETA); 0 means unknown.
func (o Options) telemetryFor(d *core.DTL, defaultPeriod, horizon sim.Time) *runTelemetry {
	return o.telemetryForSource(d, func(now sim.Time, done bool) WatchSnapshot {
		return snapshotDTL(d, o.watchExperiment, now, horizon, done)
	}, defaultPeriod, horizon)
}

// telemetryForFabric is telemetryFor for rack runs: the trace, ledger, and
// metrics sources are the fabric's rack-global ones, and watch snapshots
// concatenate every expander's rank strip.
func (o Options) telemetryForFabric(f *rack.Fabric, defaultPeriod, horizon sim.Time) *runTelemetry {
	return o.telemetryForSource(f, func(now sim.Time, done bool) WatchSnapshot {
		return snapshotFabric(f, o.watchExperiment, now, horizon, done)
	}, defaultPeriod, horizon)
}

func (o Options) telemetryForSource(src attrSource, snapshot func(sim.Time, bool) WatchSnapshot, defaultPeriod, horizon sim.Time) *runTelemetry {
	if !o.observed() {
		return nil
	}
	rt := &runTelemetry{
		tracePath:   o.TracePath,
		metricsPath: o.MetricsPath,
		ledgerPath:  o.LedgerPath,
		src:         src,
		snapshot:    snapshot,
		reg:         src.Registry(),
		eng:         sim.NewEngine(),
		horizon:     horizon,
		watch:       o.Watch,
		watchLabel:  o.watchExperiment,
	}
	if o.TracePath != "" {
		rt.tr = src.StartTrace(0, 0)
		rt.traceFormat = o.TraceFormat
		if o.TraceFormat != telemetry.FormatChrome {
			if f, err := os.Create(o.TracePath); err != nil {
				rt.traceErr = err
			} else {
				rt.traceFile = f
				rt.traceBuf = bufio.NewWriter(f)
				ts, err := telemetry.NewTraceStream(rt.traceBuf, o.TraceFormat)
				if err != nil {
					rt.traceErr = err
				} else {
					rt.traceStream = ts
					rt.tr.AttachStream(ts)
				}
			}
		}
	}
	// The cost ledger rides along whenever any attribution consumer is
	// active: an explicit -ledger file, a trace (which receives the ledger
	// dump at finish), or a watch pane.
	if o.LedgerPath != "" || o.TracePath != "" || o.Watch != nil {
		rt.led = src.StartLedger()
	}
	rt.startSampling(o, defaultPeriod)
	rt.startWatch(o, defaultPeriod)
	return rt
}

// telemetryForRegistry attaches periodic metrics sampling to a bare registry
// for the experiments that have no DTL (fig1's schedule gauges, fig2/fig5's
// raw controller replays). TracePath and Watch are ignored here: without a
// DTL there is no tracer source and no rank strip to watch, and Options
// documents which experiments honor them.
func (o Options) telemetryForRegistry(reg *telemetry.Registry, defaultPeriod, horizon sim.Time) *runTelemetry {
	if o.MetricsPath == "" {
		return nil
	}
	rt := &runTelemetry{
		metricsPath: o.MetricsPath,
		reg:         reg,
		eng:         sim.NewEngine(),
		horizon:     horizon,
	}
	rt.startSampling(o, defaultPeriod)
	return rt
}

func (o Options) period(defaultPeriod sim.Time) sim.Time {
	if o.SamplePeriod > 0 {
		return o.SamplePeriod
	}
	return defaultPeriod
}

func (rt *runTelemetry) startSampling(o Options, defaultPeriod sim.Time) {
	if rt.metricsPath == "" {
		return
	}
	f, err := os.Create(rt.metricsPath)
	if err != nil {
		rt.metricsErr = err
		return
	}
	rt.metricsFile = f
	rt.metricsBuf = bufio.NewWriter(f)
	rt.stream = rt.reg.StreamTo(rt.metricsBuf)
	rt.stop = rt.stream.Start(rt.eng, o.period(defaultPeriod))
}

// startWatch schedules snapshot publication at the sampling cadence. The
// publisher runs on the sim goroutine (inside tick) and never blocks, so the
// run is byte-identical with and without a watcher.
func (rt *runTelemetry) startWatch(o Options, defaultPeriod sim.Time) {
	if rt.watch == nil || rt.snapshot == nil {
		return
	}
	rt.eng.Every(o.period(defaultPeriod), func(now sim.Time) {
		sendWatch(rt.watch, rt.snapshot(now, false))
	})
}

// tick advances the sampling clock to now, firing any due interval timers.
func (rt *runTelemetry) tick(now sim.Time) {
	if rt == nil {
		return
	}
	rt.eng.RunUntil(now)
}

// next reports the sampling clock's next due time; ok is false when rt is
// nil or nothing is scheduled. The replay loops use it as the round boundary:
// quiesce every channel strictly before next(), then tick the sample.
func (rt *runTelemetry) next() (at sim.Time, ok bool) {
	if rt == nil {
		return 0, false
	}
	return rt.eng.NextEventAt()
}

// finish closes the trace at horizon, detaches it from the device, writes the
// requested output files, and publishes the final watch snapshot.
func (rt *runTelemetry) finish(horizon sim.Time) error {
	if rt == nil {
		return nil
	}
	rt.tick(horizon)
	if rt.stop != nil {
		rt.stop()
	}
	if rt.tr != nil {
		rt.tr.Finish(horizon)
	}
	if rt.led != nil {
		// Complete the attribution bill: fold the run's background-energy
		// proxy (finished power spans) into the ledger — and, for a rack
		// source, fold every expander's private ledger into rack-global
		// numbering — then dump the per-cell totals into the trace so any
		// trace consumer can rebuild attribution. With no trace attached
		// the residency fold is a no-op and only technique costs appear,
		// matching the ledger-only behavior documented in Options.
		rt.src.FinishAttribution(rt.tr, rt.led, horizon)
	}
	if rt.tr != nil {
		rt.src.AttachTracer(nil)
		if rt.traceFormat == telemetry.FormatChrome {
			if err := writeTo(rt.tracePath, func(f *os.File) error {
				return telemetry.WriteChromeTrace(f, rt.tr)
			}); err != nil {
				return fmt.Errorf("experiments: writing trace: %w", err)
			}
		} else if err := rt.closeTrace(); err != nil {
			return fmt.Errorf("experiments: writing trace: %w", err)
		}
	}
	if rt.led != nil {
		rt.src.AttachLedger(nil)
		if rt.ledgerPath != "" {
			if err := writeTo(rt.ledgerPath, func(f *os.File) error {
				return rt.led.WriteJSON(f)
			}); err != nil {
				return fmt.Errorf("experiments: writing ledger: %w", err)
			}
		}
	}
	if rt.metricsPath != "" {
		if err := rt.closeMetrics(); err != nil {
			return fmt.Errorf("experiments: writing metrics: %w", err)
		}
	}
	if rt.watch != nil && rt.snapshot != nil {
		sendWatch(rt.watch, rt.snapshot(horizon, true))
	}
	return nil
}

// closeTrace finalizes a streamed jsonl/csv trace: the Finish-time span
// closures have already been streamed, so only the buffer flush and the file
// close remain. The first error anywhere in the chain wins.
func (rt *runTelemetry) closeTrace() error {
	if rt.traceErr != nil {
		return rt.traceErr
	}
	err := rt.traceStream.Err()
	if ferr := rt.traceBuf.Flush(); err == nil {
		err = ferr
	}
	if cerr := rt.traceFile.Close(); err == nil {
		err = cerr
	}
	return err
}

// closeMetrics finalizes the streamed CSV: the header is forced out even if
// no sample fired (so the file is always well-formed), the write buffer is
// flushed, and the file closed. The first error anywhere in the chain wins.
func (rt *runTelemetry) closeMetrics() error {
	if rt.metricsErr != nil {
		return rt.metricsErr
	}
	err := rt.stream.Finish()
	if ferr := rt.metricsBuf.Flush(); err == nil {
		err = ferr
	}
	if cerr := rt.metricsFile.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// observed reports whether o has any of the telemetry outputs that
// withoutTelemetry clears.
func (o Options) observed() bool {
	return o.TracePath != "" || o.MetricsPath != "" || o.LedgerPath != "" || o.Watch != nil
}

// withoutTelemetry clears the telemetry outputs; used by experiments that
// run the same schedule several times so only the headline run writes files
// (and only the headline run feeds the watch).
func (o Options) withoutTelemetry() Options {
	o.TracePath = ""
	o.MetricsPath = ""
	o.LedgerPath = ""
	o.Watch = nil
	return o
}
