package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"dtl/internal/experiments"
	"dtl/internal/metrics"
	"dtl/internal/serve"
	"dtl/internal/serve/client"
)

// must returns v, or ends the example on a non-nil err.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// An A/B policy study through dtlserved's HTTP API: submit a quick Figure 12
// baseline and a reserve=3 variant to an in-process daemon, follow the
// variant's snapshot stream, then have the server diff the two traces and
// print the residency movement per power state. Pointed at a running
// daemon (dtlserved -addr :8080), only the base URL passed to client.New
// changes.
func Example() {
	dir := must(os.MkdirTemp("", "dtlserved-store"))
	defer os.RemoveAll(dir)
	srv := must(serve.New(serve.Config{Workers: 2, StoreDir: dir}))
	defer srv.Drain(context.Background()) // stops the workers
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(hs.URL)

	// The A/B pair: same experiment, same seed, one policy knob apart.
	baseline := must(c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true}))
	variant := must(c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true, Policy: "reserve=3"}))
	fmt.Printf("submitted %s (baseline) and %s (policy %q)\n", baseline.ID, variant.ID, variant.Spec.Policy)

	// Follow the variant live: the coalesced snapshot stream that drives
	// `dtlsim -watch`, over HTTP. How many snapshots arrive depends on
	// scheduling; at least the final one always does.
	snaps := 0
	final := must(c.Stream(ctx, variant.ID, func(experiments.WatchSnapshot) { snaps++ }))
	fmt.Printf("%s: %s, streamed snapshots: %v\n", variant.ID, final.State, snaps > 0)
	must(c.Wait(ctx, baseline.ID))

	// Server-side diff: residency shares, migration percentiles, energy proxy.
	diff := must(c.Diff(ctx, serve.DiffRequest{A: baseline.ID, B: variant.ID}))
	fmt.Printf("\nresidency shift, baseline -> reserve=3:\n\n")
	tbl := metrics.NewTable("state", "baseline", "reserve=3", "delta (pp)")
	for _, sh := range diff.Aggregate {
		tbl.AddRowf("%s\t%.1f%%\t%.1f%%\t%+.1f", sh.State, 100*sh.A, 100*sh.B, 100*sh.Delta())
	}
	tbl.Render(os.Stdout)
	fmt.Printf("\nenergy proxy: %+.2f%% (migrations %d -> %d)\n",
		diff.EnergyPct, diff.MigrationsA, diff.MigrationsB)
	// Output:
	// submitted j000001 (baseline) and j000002 (policy "reserve=3")
	// j000002: done, streamed snapshots: true
	//
	// residency shift, baseline -> reserve=3:
	//
	// state    baseline  reserve=3  delta (pp)
	// -------  --------  ---------  ----------
	// mpsm     74.0%     61.5%      -12.5
	// standby  26.0%     38.5%      +12.5
	//
	// energy proxy: +37.49% (migrations 52224 -> 0)
}
