package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goldenCase is one dtlstat invocation with its stdout, stderr and exit
// status pinned.
type goldenCase struct {
	golden string // stdout golden under testdata; empty: stdout must be empty
	code   int
	stderr string // exact stderr; not compared for usage errors (code 2)
	args   []string
}

// runGoldens runs each case and compares it against its pins. subst, when
// not nil, rewrites run-specific strings (temp paths, server addresses) in
// both streams before comparing. Regenerate the stdout goldens with
//
//	go test ./cmd/dtlstat -update
func runGoldens(t *testing.T, subst *strings.Replacer, cases []goldenCase) {
	t.Helper()
	for _, tc := range cases {
		out, errOut, code := runStd(t, tc.args...)
		if subst != nil {
			out, errOut = subst.Replace(out), subst.Replace(errOut)
		}
		if code != tc.code {
			t.Errorf("dtlstat %q exited %d, want %d (stderr %q)", tc.args, code, tc.code, errOut)
		}
		if tc.code != 2 && errOut != tc.stderr {
			t.Errorf("dtlstat %q stderr:\n%s\nwant:\n%s", tc.args, errOut, tc.stderr)
		}
		if tc.golden == "" {
			if out != "" {
				t.Errorf("dtlstat %q printed %q, want nothing", tc.args, out)
			}
			continue
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with go test ./cmd/dtlstat -update)", err)
		}
		if out != string(want) {
			t.Errorf("dtlstat %q drifted from %s\n--- got ---\n%s\n--- want ---\n%s", tc.args, path, out, want)
		}
	}
}

// TestReadCheckAndExpandersGolden pins `read -check` against a band the
// fixture stream passes and one it leaves, in text and -json (the gate
// never changes stdout, only the exit status and stderr), and `read
// -expanders` on a four-channel rack-shaped stream: two expanders in text
// and -json, and the refusals of a count that does not divide the channels
// and of a negative count.
func TestReadCheckAndExpandersGolden(t *testing.T) {
	const (
		fixture = "../../internal/telemetry/testdata/fixture.stream.jsonl"
		rack    = "testdata/rack.stream.jsonl"
		pass    = "testdata/band_pass.json"
		fail    = "testdata/band_fail.json"
	)
	const violated = "dtlstat: residency band violated: [mpsm share 0.225 outside 0.500±0.050]\n"
	runGoldens(t, nil, []goldenCase{
		{"read_check_pass.golden.txt", 0, "", []string{"read", "-check", pass, fixture}},
		{"read_check_fail.golden.txt", 1, violated, []string{"read", "-check", fail, fixture}},
		{"read_fixture.golden.json", 0, "", []string{"read", "-json", "-check", pass, fixture}},
		{"read_fixture.golden.json", 1, violated, []string{"read", "-json", "-check", fail, fixture}},
		{"read_fixture.golden.json", 1, "dtlstat: open testdata/missing.json: no such file or directory\n",
			[]string{"read", "-json", "-check", "testdata/missing.json", fixture}},
		{"read_rack.golden.txt", 0, "", []string{"read", rack}},
		{"read_rack_x2.golden.txt", 0, "", []string{"read", "-expanders", "2", rack}},
		{"read_rack_x2.golden.json", 0, "", []string{"read", "-json", "-expanders", "2", rack}},
		{"", 1, "dtlstat: -expanders 3 does not divide the trace's 4 channels\n",
			[]string{"read", "-expanders", "3", rack}},
		{"", 1, "dtlstat: -expanders 3 does not divide the trace's 4 channels\n",
			[]string{"read", "-json", "-expanders", "3", rack}},
		{"", 2, "", []string{"read", "-expanders", "-1", rack}},
	})
}

// TestReadIgnoresMapOrder pins `read -json` of two ranks whose states hold
// 0.1, 0.2 and 0.3 us. Summed in Go map order, the rank totals and the
// energy proxy printed a different last digit from run to run; the fixed
// summation order prints one set of bytes.
func TestReadIgnoresMapOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		runGoldens(t, nil, []goldenCase{
			{"read_order.golden.json", 0, "", []string{"read", "-json", "testdata/order.stream.jsonl"}},
		})
	}
}

// TestTopTextGolden pins the text tables of `dtlstat top`, which only its
// -json form had pinned; the ledger's temp path is templated out.
func TestTopTextGolden(t *testing.T) {
	path := fixtureLedger(t)
	runGoldens(t, strings.NewReplacer(path, "LEDGER"), []goldenCase{
		{"top_fabric.golden.txt", 0, "", []string{"top", path}},
	})
}

// fixtureDaemon serves the committed job list and one job's timeline the
// way dtlserved does: GET /v1/jobs filtered by ?state=, GET
// /v1/jobs/j000002/timeline, and a JSON error body for anything else. It
// records each job-list query so tests can see which filter arrived.
func fixtureDaemon(t *testing.T) (srv *httptest.Server, queries func() []string) {
	t.Helper()
	jobs, err := os.ReadFile("testdata/jobs.json")
	if err != nil {
		t.Fatal(err)
	}
	timeline, err := os.ReadFile("testdata/timeline.json")
	if err != nil {
		t.Fatal(err)
	}
	var all []json.RawMessage
	if err := json.Unmarshal(jobs, &all); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []string
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.RawQuery)
		mu.Unlock()
		state := r.URL.Query().Get("state")
		out := []json.RawMessage{}
		for _, j := range all {
			var head struct{ State string }
			if err := json.Unmarshal(j, &head); err != nil {
				t.Error(err)
			}
			if state == "" || head.State == state {
				out = append(out, j)
			}
		}
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/v1/jobs/j000002/timeline", func(w http.ResponseWriter, r *http.Request) {
		w.Write(timeline)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"job not found"}`))
	})
	srv = httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}
}

// TestJobsGolden pins `dtlstat jobs` in text and -json, unfiltered and with
// -state, against the committed job-list fixture: jobs with and without a
// timeline, a failed one, a submit time carrying a zone offset, and fields
// the trimmed row ignores.
func TestJobsGolden(t *testing.T) {
	srv, queries := fixtureDaemon(t)
	hostPort := srv.Listener.Addr().String()
	runGoldens(t, nil, []goldenCase{
		{"jobs.golden.txt", 0, "", []string{"jobs", "-addr", hostPort}},
		{"jobs.golden.json", 0, "", []string{"jobs", "-addr", srv.URL + "/", "-json"}},
		{"jobs_done.golden.txt", 0, "", []string{"jobs", "-addr", hostPort, "-state", "done"}},
		{"jobs_done.golden.json", 0, "", []string{"jobs", "-addr", hostPort, "-state", "done", "-json"}},
		{"jobs_none.golden.txt", 0, "", []string{"jobs", "-addr", hostPort, "-state", "canceled"}},
		{"", 2, "", []string{"jobs", "-addr", hostPort, "extra"}},
	})
	want := []string{"", "", "state=done", "state=done", "state=canceled"}
	if got := queries(); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("job-list queries = %q, want %q", got, want)
	}
}

// TestTimelineGolden pins `dtlstat timeline` in text and -json with one
// passing and one failing set of -check gates, read from the committed
// timeline.json and fetched through -addr/-job from a daemon serving the
// same bytes: both sources must print the same goldens.
func TestTimelineGolden(t *testing.T) {
	srv, _ := fixtureDaemon(t)
	const file = "testdata/timeline.json"
	passing := []string{
		"-check", "stage=queued,p99<1s",
		"-check", "stage=store-write,max<20ms",
		"-check", "stage=journal-fsync,p50<1ms",
	}
	failing := []string{
		"-check", "stage=store-write,p95<10ms",
		"-check", "stage=running,max<2s",
		"-check", "stage=recovery-replay,max<1s",
	}
	const failed = "dtlstat: FAIL: stage \"store-write\" p95 = 11.55ms, want < 10ms\n" +
		"dtlstat: FAIL: stage \"recovery-replay\" has no spans in this timeline\n"
	var cases []goldenCase
	for _, src := range [][]string{{file}, {"-addr", srv.URL, "-job", "j000002"}} {
		with := func(flags ...string) []string {
			return append(append([]string{"timeline"}, flags...), src...)
		}
		cases = append(cases,
			goldenCase{"timeline.golden.txt", 0, "", with()},
			goldenCase{"timeline.golden.json", 0, "", with("-json")},
			goldenCase{"timeline_pass.golden.txt", 0, "", with(passing...)},
			goldenCase{"timeline.golden.json", 0, "", with(append([]string{"-json"}, passing...)...)},
			goldenCase{"timeline.golden.txt", 1, failed, with(failing...)},
			goldenCase{"timeline.golden.json", 1, failed, with(append([]string{"-json"}, failing...)...)},
		)
	}
	cases = append(cases,
		goldenCase{"", 1, "dtlstat: SERVER/v1/jobs/j999999/timeline: job not found\n",
			[]string{"timeline", "-addr", srv.URL, "-job", "j999999"}},
		goldenCase{"", 1, "dtlstat: need a timeline.json path or -job ID\n", []string{"timeline"}},
		goldenCase{"", 2, "", []string{"timeline", file, file}},
	)
	runGoldens(t, strings.NewReplacer(srv.URL, "SERVER"), cases)
}
