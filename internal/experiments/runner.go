package experiments

import (
	"bytes"
	"sync"
)

// Parallel execution. Every experiment builds its own DTL, engine, and trace
// generators from the Options it is handed and touches no package-level
// mutable state, so independent experiments (and independent sweep points
// inside one experiment) can run on separate goroutines. Determinism is
// preserved by construction: each run sees exactly the Options a serial run
// would see (same seed, same scale), writes into a private buffer, and the
// buffers are flushed in presentation order — byte-identical to a serial run.

// RunAll executes runners against opts, fanning out across at most parallel
// workers. With parallel <= 1 it degenerates to the plain serial loop,
// writing directly to opts.Out. In parallel mode each experiment's report
// goes to a private buffer; buffers are concatenated in runner order once
// every experiment finished, and the Result slice is indexed by runner order
// regardless of completion order.
//
// Shared single-file sinks (TracePath, MetricsPath) are cleared when more
// than one experiment runs in parallel: several experiments writing one file
// concurrently would interleave, whereas CSVDir stays enabled because every
// experiment writes distinctly-named series files.
func RunAll(runners []Runner, opts Options, parallel int) []Result {
	opts.srRuns = &srMemo{runs: map[srKey]*srRun{}}
	if parallel <= 1 || len(runners) <= 1 {
		return sweepPoints(runners, 1, func(r Runner) Result {
			o := opts
			o.watchExperiment = r.ID
			return runRunner(r, o)
		})
	}

	// Watch joins the single-file sinks here: interleaved snapshots from
	// concurrent experiments would make the dashboard meaningless. The
	// ledger is a single shared file too.
	opts.TracePath = ""
	opts.MetricsPath = ""
	opts.LedgerPath = ""
	opts.Watch = nil

	type run struct {
		r   Runner
		out *bytes.Buffer
	}
	runs := make([]run, len(runners))
	for i, r := range runners {
		runs[i] = run{r, &bytes.Buffer{}}
	}
	results := sweepPoints(runs, parallel, func(x run) Result {
		o := opts
		o.Out = x.out
		o.watchExperiment = x.r.ID
		return runRunner(x.r, o)
	})
	out := opts.out()
	for _, x := range runs {
		out.Write(x.out.Bytes())
	}
	return results
}

// runRunner executes one experiment, converting the cancellation panic
// raised by Options.checkCanceled inside a run loop into a canceled Result.
// When the context is already done the run is skipped outright. Any other
// panic is a real bug and propagates.
func runRunner(r Runner, o Options) (res Result) {
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return canceledResult(r, err)
		}
		defer func() {
			if rec := recover(); rec != nil {
				cp, ok := rec.(canceledPanic)
				if !ok {
					panic(rec)
				}
				res = canceledResult(r, cp.err)
			}
		}()
	}
	return r.Run(o)
}

func canceledResult(r Runner, err error) Result {
	return Result{ID: r.ID, Title: r.Name, Canceled: true, Err: err.Error(),
		Metrics: map[string]float64{}}
}

// sweepPoints maps fn over points with at most parallel concurrent workers,
// returning results indexed like points. It is the fan-out primitive for
// ablation sweeps: each point builds its own device, so points only need
// their Options to be private. parallel <= 1 runs serially in place.
func sweepPoints[P, R any](points []P, parallel int, fn func(P) R) []R {
	results := make([]R, len(points))
	if parallel > len(points) {
		parallel = len(points)
	}
	if parallel <= 1 || len(points) <= 1 {
		for i, p := range points {
			results[i] = fn(p)
		}
		return results
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = fn(points[i])
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}
