package experiments

import (
	"context"
	"testing"
	"time"
)

// TestRunAllCanceledBeforeStart: a context that is already done skips every
// runner and marks each Result canceled, in both serial and parallel modes.
func TestRunAllCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runners := runnersByID(t, "fig12", "table2", "fig6")
	for _, workers := range []int{1, 3} {
		o := quickOpts()
		o.Ctx = ctx
		results := RunAll(runners, o, workers)
		if len(results) != len(runners) {
			t.Fatalf("workers=%d: got %d results", workers, len(results))
		}
		for i, r := range results {
			if !r.Canceled || r.Err == "" {
				t.Fatalf("workers=%d: result %d not canceled: %+v", workers, i, r)
			}
			if r.ID != runners[i].ID {
				t.Fatalf("workers=%d: result %d id %q, want %q", workers, i, r.ID, runners[i].ID)
			}
		}
	}
}

// TestRunCanceledMidSchedule: a deadline expiring during the 6-hour schedule
// loop abandons the run promptly instead of finishing it.
func TestRunCanceledMidSchedule(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	o := quickOpts()
	o.Ctx = ctx
	r, _ := ByID("fig12")
	start := time.Now()
	res := runRunner(r, o)
	if !res.Canceled {
		t.Fatalf("fig12 under a canceled context completed: %+v", res)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt abandonment", d)
	}
}

// TestRunTimeoutMidReplay: a deadline expiring inside a self-refresh replay
// is honored at the polling cadence, by fig14 and by the ablation sweeps
// that share its replay driver.
func TestRunTimeoutMidReplay(t *testing.T) {
	for _, id := range []string{"fig14", "abl-threshold"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		o := quickOpts()
		o.Ctx = ctx
		r, _ := ByID(id)
		res := runRunner(r, o)
		cancel()
		if !res.Canceled {
			t.Fatalf("%s under a 10ms deadline completed: %+v", id, res)
		}
	}
}
