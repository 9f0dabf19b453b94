// Package cliflag validates the worker-count and model-size knobs
// (-parallel, -rack) shared by the dtl front ends. The commands differ in
// how they report problems (dtlsim prints to stderr and exits 2, dtlserved
// logs structured records), so validation returns the verdict and lets the
// caller render it, mirroring the repo's "unknown policy keys fail loudly"
// convention instead of silently misbehaving on nonsense values.
package cliflag

import (
	"fmt"
	"runtime"
)

// Warning describes a worker-count value that was accepted after adjustment.
// It exposes the fields separately so structured loggers can attach them as
// attributes instead of parsing the rendered string.
type Warning struct {
	Flag      string // flag name without the leading dash, e.g. "parallel"
	Requested int    // the value the user asked for
	Capped    int    // the value actually used
}

// String renders the warning for plain-text front ends.
func (w *Warning) String() string {
	return fmt.Sprintf("-%s %d exceeds GOMAXPROCS=%d; capping at %d (results are identical at every count)",
		w.Flag, w.Requested, w.Capped, w.Capped)
}

// CheckWorkers validates a worker count v for the flag -name.
// explicit reports whether the user set the flag on the command line (see
// flag.Visit): an explicit zero is rejected — it always indicates a typo'd
// invocation, never a meaningful request — while an unset zero falls back
// to 1 (serial). Negative counts are rejected outright. Counts above
// GOMAXPROCS are capped to it with a non-nil *Warning: extra workers beyond
// the scheduler's parallelism only add contention, and output is
// byte-identical at every count, so capping is always safe.
func CheckWorkers(name string, v int, explicit bool) (n int, warning *Warning, err error) {
	if v < 0 {
		return 0, nil, fmt.Errorf("-%s %d: want a positive worker count", name, v)
	}
	if v == 0 {
		if explicit {
			return 0, nil, fmt.Errorf("-%s 0: want a positive worker count (omit the flag to run serially)", name)
		}
		return 1, nil, nil
	}
	if max := runtime.GOMAXPROCS(0); v > max {
		return max, &Warning{Flag: name, Requested: v, Capped: max}, nil
	}
	return v, nil, nil
}

// BoundedWorkers is CheckWorkers with the warning pre-rendered as a string,
// for front ends that print rather than log (dtlsim).
func BoundedWorkers(name string, v int, explicit bool) (n int, warning string, err error) {
	n, w, err := CheckWorkers(name, v, explicit)
	if w != nil {
		warning = w.String()
	}
	return n, warning, err
}

// CheckCount validates a bounded model-size knob (-rack): unlike worker
// counts, these change the simulated physics, so a value above the model's
// bound is rejected loudly rather than silently capped (capping would
// silently simulate a different rack). Negative values and explicit zeros
// are rejected like CheckWorkers; an unset zero is returned as 0, meaning
// "use the experiment's default".
func CheckCount(name string, v int, explicit bool, max int) (int, error) {
	if v < 0 {
		return 0, fmt.Errorf("-%s %d: want a positive count", name, v)
	}
	if v == 0 {
		if explicit {
			return 0, fmt.Errorf("-%s 0: want a positive count (omit the flag for the default)", name)
		}
		return 0, nil
	}
	if v > max {
		return 0, fmt.Errorf("-%s %d exceeds the supported maximum %d", name, v, max)
	}
	return v, nil
}
