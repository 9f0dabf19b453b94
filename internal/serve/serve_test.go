package serve_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtl/internal/experiments"
	"dtl/internal/serve"
	"dtl/internal/serve/client"
	"dtl/internal/telemetry"
)

// newServer starts a serve.Server with an httptest front end and a client
// pointed at it.
func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, client.New(hs.URL)
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunFetchArtifacts(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 1})
	ctx := ctxT(t)

	st, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateQueued && st.State != serve.StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || !strings.EqualFold(final.Result.ID, "fig12") {
		t.Fatalf("missing result in final status: %+v", final.Result)
	}
	if final.Snapshots < 1 {
		t.Fatalf("job published %d snapshots, want >= 1", final.Snapshots)
	}

	want := map[string]bool{
		"report.txt": false, "result.json": false, "trace.jsonl": false,
		"metrics.csv": false, "ledger.json": false, "summary.json": false,
		"timeline.json": false,
	}
	for _, a := range final.Artifacts {
		if _, ok := want[a.Name]; !ok {
			t.Errorf("unexpected artifact %q", a.Name)
		}
		want[a.Name] = true
		if a.Size <= 0 || len(a.Digest) != 64 {
			t.Errorf("artifact %s: size=%d digest=%q", a.Name, a.Size, a.Digest)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("artifact %q missing from %v", name, final.Artifacts)
		}
	}

	// The trace artifact must round-trip through telemetry as a valid trace.
	raw, err := c.Artifact(ctx, st.ID, "trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := telemetry.SummarizeJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Residency) == 0 {
		t.Fatal("served trace has no residency spans")
	}
}

func TestRejectsUnknownExperimentAndPolicyKey(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 0})
	ctx := ctxT(t)

	cases := []struct {
		spec serve.JobSpec
		frag string
	}{
		{serve.JobSpec{Experiment: "fig99"}, "unknown experiment"},
		{serve.JobSpec{}, "experiment is required"},
		{serve.JobSpec{Experiment: "fig12", Policy: "bogus=1"}, "unknown policy key"},
		{serve.JobSpec{Experiment: "fig12", TraceFormat: "xml"}, "trace format"},
		{serve.JobSpec{Experiment: "fig12", TimeoutSec: -1}, "timeout_sec"},
		{serve.JobSpec{Experiment: "fig12", Parallel: -1}, "parallel"},
	}
	for _, tc := range cases {
		_, err := c.Submit(ctx, tc.spec)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("Submit(%+v) err = %v, want *APIError", tc.spec, err)
		}
		if apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("Submit(%+v) status = %d, want 400", tc.spec, apiErr.StatusCode)
		}
		if !strings.Contains(apiErr.Message, tc.frag) {
			t.Errorf("Submit(%+v) message %q missing %q", tc.spec, apiErr.Message, tc.frag)
		}
	}
}

// retiredSpecField is a JobSpec field that older servers accepted and
// journaled. It never entered the spec digest, and this server no longer
// has it.
const retiredSpecField = `"shards":4`

// TestSubmitRejectsRetiredSpecField: the API decodes specs strictly, so a
// client still sending the retired field gets a 400 naming it instead of a
// job that silently ignores it.
func TestSubmitRejectsRetiredSpecField(t *testing.T) {
	srv, _ := newServer(t, serve.Config{Workers: 0})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	body := `{"experiment":"fig2","quick":true,` + retiredSpecField + `}`
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, msg)
	}
	field, _, _ := strings.Cut(retiredSpecField, ":")
	if !strings.Contains(string(msg), "unknown field") || !strings.Contains(string(msg), strings.Trim(field, `"`)) {
		t.Fatalf("error %q does not name the retired field %s", msg, field)
	}
}

func TestQueueBackpressure(t *testing.T) {
	// No workers: nothing drains the queue, so depth 2 fills deterministically.
	_, c := newServer(t, serve.Config{Workers: 0, QueueDepth: 2})
	ctx := ctxT(t)

	// Distinct seeds: identical specs would coalesce onto the first job
	// instead of occupying queue slots.
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true, Seed: 3})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit: %v, want 429", err)
	}
	if apiErr.RetryAfter != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", apiErr.RetryAfter)
	}
}

func TestStreamDeliversSnapshotsThenStatus(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 1})
	ctx := ctxT(t)

	st, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	var last experiments.WatchSnapshot
	final, err := c.Stream(ctx, st.ID, func(s experiments.WatchSnapshot) {
		snaps++
		last = s
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("stream final state = %s (%s)", final.State, final.Error)
	}
	if snaps < 1 {
		t.Fatal("stream delivered no snapshots")
	}
	if last.Experiment != "fig12" {
		t.Fatalf("snapshot experiment = %q", last.Experiment)
	}
}

func TestStreamSSEEncoding(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 1})
	ctx := ctxT(t)
	st, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	// Raw request so we can set Accept and inspect the SSE framing.
	resp := doRaw(t, c, ctx, "/v1/jobs/"+st.ID+"/stream", "text/event-stream")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("event: status\ndata: ")) {
		t.Fatalf("SSE stream missing status frame:\n%s", body)
	}
}

func TestDeterminismAndServerDiff(t *testing.T) {
	srv, c := newServer(t, serve.Config{Workers: 2})
	ctx := ctxT(t)

	// Force: the determinism gate wants two real executions of the same
	// spec, not one execution answered twice by the result cache.
	spec := serve.JobSpec{Experiment: "fig12", Quick: true, Force: true}
	a, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatalf("force submissions coalesced onto %s", a.ID)
	}
	fa, err := c.Wait(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := c.Wait(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fa.State != serve.StateDone || fb.State != serve.StateDone {
		t.Fatalf("states %s/%s (%s %s)", fa.State, fb.State, fa.Error, fb.Error)
	}

	// Byte-determinism: the content-addressed store makes it a digest check.
	// timeline.json is exempt — it records wall-clock measurements, which
	// are never byte-identical across runs by design.
	digests := func(st serve.JobStatus) map[string]string {
		m := map[string]string{}
		for _, art := range st.Artifacts {
			if art.Name == "timeline.json" {
				continue
			}
			m[art.Name] = art.Digest
		}
		return m
	}
	da, db := digests(fa), digests(fb)
	for name, d := range da {
		if db[name] != d {
			t.Errorf("artifact %s differs across identical jobs: %s vs %s", name, d, db[name])
		}
	}

	// The server-side diff of the identical pair must pass at 1e-9.
	diff, err := c.Diff(ctx, serve.DiffRequest{A: a.ID, B: b.ID, Share: 1e-9, Lat: 1e-9, Energy: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Pass {
		t.Fatalf("identical jobs failed diff: %v", diff.Violations)
	}

	// And the served trace must match a direct in-process run at 1e-9.
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	fig12, _ := experiments.ByID("fig12")
	var out bytes.Buffer
	experiments.RunAll([]experiments.Runner{fig12}, experiments.Options{
		Quick:       true,
		Seed:        1,
		Out:         &out,
		TracePath:   tracePath,
		TraceFormat: telemetry.FormatJSONL,
	}, 1)
	direct, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	sumDirect, err := telemetry.SummarizeJSONL(direct)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.Artifact(ctx, a.ID, "trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sumServed, err := telemetry.SummarizeJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	d := telemetry.DiffSummaries(sumDirect, sumServed)
	if bad := d.Check(telemetry.DiffTolerance{Share: 1e-9, LatFrac: 1e-9, EnergyFrac: 1e-9}); len(bad) > 0 {
		t.Fatalf("served run drifted from direct run: %v", bad)
	}
	_ = srv
}

// TestConvertedTraceFormats: a chrome or csv job's trace artifact is the
// conversion of the run's JSONL stream, its summary.json is taken from
// that stream, and the diff endpoint reads it like a jsonl job's.
func TestConvertedTraceFormats(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 2})
	ctx := ctxT(t)

	run := func(format string) serve.JobStatus {
		t.Helper()
		st, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true, TraceFormat: format})
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Wait(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != serve.StateDone {
			t.Fatalf("%s job finished %s (%s)", format, final.State, final.Error)
		}
		return final
	}
	base := run("jsonl")
	stream, err := c.Artifact(ctx, base.ID, "trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(in, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	summary := func(st serve.JobStatus) string {
		for _, a := range st.Artifacts {
			if a.Name == "summary.json" {
				return a.Digest
			}
		}
		t.Fatalf("job %s has no summary.json", st.ID)
		return ""
	}
	for _, tc := range []struct {
		format, artifact string
		tf               telemetry.TraceFormat
	}{{"chrome", "trace.json", telemetry.FormatChrome}, {"csv", "trace.csv", telemetry.FormatCSV}} {
		st := run(tc.format)
		got, err := c.Artifact(ctx, st.ID, tc.artifact)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), tc.artifact)
		if err := telemetry.ConvertTraceFile(in, out, tc.tf); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s artifact is not the conversion of the jsonl job's trace", tc.artifact)
		}
		if summary(st) != summary(base) {
			t.Errorf("%s job's summary.json differs from the jsonl job's", tc.format)
		}
		diff, err := c.Diff(ctx, serve.DiffRequest{A: base.ID, B: st.ID, Share: 1e-9, Lat: 1e-9, Energy: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if !diff.Pass {
			t.Errorf("jsonl vs %s job diff failed: %v", tc.format, diff.Violations)
		}
	}
}

func TestDiffErrorPaths(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 0})
	ctx := ctxT(t)

	queued, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Diff(ctx, serve.DiffRequest{A: "nope", B: "nope2"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("diff of unknown jobs: %v, want 404", err)
	}
	_, err = c.Diff(ctx, serve.DiffRequest{A: queued.ID, B: queued.ID})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("diff of queued job: %v, want 409", err)
	}
	_, err = c.Diff(ctx, serve.DiffRequest{A: "", B: queued.ID})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("diff with empty id: %v, want 400", err)
	}
}

func TestJobTimeoutCancels(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 1})
	ctx := ctxT(t)

	st, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true, TimeoutSec: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateCanceled {
		t.Fatalf("timed-out job state = %s, want canceled", final.State)
	}
	if !strings.Contains(final.Error, "timeout") {
		t.Fatalf("timed-out job error = %q", final.Error)
	}
}

func TestCancelEndpoint(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 1})
	ctx := ctxT(t)

	// full-scale fig14 runs for seconds — enough runway to cancel mid-flight.
	st, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig14"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %s)", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateCanceled {
		t.Fatalf("canceled job state = %s (%s)", final.State, final.Error)
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	srv, c := newServer(t, serve.Config{Workers: 1})
	ctx := ctxT(t)

	st, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Draining flips synchronously-ish; wait for it, then verify rejection.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v, want 503", err)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("in-flight job after drain = %s (%s), want done", final.State, final.Error)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, c := newServer(t, serve.Config{Workers: 1})
	ctx := ctxT(t)

	st, err := c.Submit(ctx, serve.JobSpec{Experiment: "fig12", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	resp := doRaw(t, c, ctx, "/metrics", "")
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"dtlserved_jobs_submitted_total 1",
		`dtlserved_jobs_completed_total{state="done"} 1`,
		"dtlserved_queue_depth 0",
		"dtlserved_workers 1",
		`dtlserved_job_duration_seconds_bucket{le="+Inf"} 1`,
		"dtlserved_job_duration_seconds_count 1",
		`dtlserved_stage_seconds_count{stage="queued"} 1`,
		`dtlserved_stage_seconds_count{stage="running"} 1`,
		`dtlserved_stage_seconds_count{stage="artifact-commit"} 1`,
		"dtlserved_journal_fsync_seconds_count",
		"dtlserved_store_write_bytes_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// doRaw issues a plain GET against the client's base URL (the test server).
func doRaw(t *testing.T, c *client.Client, ctx context.Context, path, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL()+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	return resp
}
