package main

// dtlstat's live-daemon subcommands: `jobs` lists a running dtlserved's
// fleet with per-stage wall-clock breakdowns, and `timeline` renders one
// job's wall-clock span log — from the daemon or from a timeline.json
// artifact on disk — as a waterfall, with repeatable -check gates for CI
// ("the queued stage's p99 must stay under 100ms").

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"time"

	"dtl/internal/metrics"
	"dtl/internal/obs"
)

// jobRow is the subset of dtlserved's JobStatus that `dtlstat jobs` renders.
// Decoding into a trimmed struct keeps the CLI decoupled from the server's
// internal types: unknown fields are ignored, so the daemon can grow its
// status payload without breaking older dtlstat binaries.
type jobRow struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Spec  struct {
		Experiment string `json:"experiment"`
		Seed       int64  `json:"seed"`
	} `json:"spec"`
	SpecDigest  string                `json:"spec_digest"`
	Error       string                `json:"error"`
	SubmittedAt time.Time             `json:"submitted_at"`
	Artifacts   []json.RawMessage     `json:"artifacts"`
	Timeline    *obs.TimelineSnapshot `json:"timeline"`
}

// getJSON fetches url and decodes the response into v, surfacing the
// daemon's {"error": ...} body on non-2xx status.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var ae struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("%s: %s", url, ae.Error)
		}
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// normalizeAddr accepts "host:port" or a full URL and returns a base URL.
func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// cmdJobs lists the daemon's jobs with wall-clock stage breakdowns.
func cmdJobs(args []string) int {
	fs := flag.NewFlagSet("dtlstat jobs", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "dtlserved address (host:port or URL)")
	state := fs.String("state", "", "filter by lifecycle state: queued, running, done, failed or canceled")
	jsonOut := fs.Bool("json", false, "emit the raw job list JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dtlstat jobs [-addr host:port] [-state S] [-json]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	url := normalizeAddr(*addr) + "/v1/jobs"
	if *state != "" {
		url += "?state=" + *state
	}
	var jobs []jobRow
	if err := getJSON(url, &jobs); err != nil {
		return fail(err)
	}

	if *jsonOut {
		if err := printJSON(jobs); err != nil {
			return fail(err)
		}
		return 0
	}

	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return 0
	}
	tab := metrics.NewTable("job", "state", "experiment", "submitted", "wall_s", "queued_s", "running_s", "commit_s", "arts")
	for _, j := range jobs {
		wall, queued, running, commit := "-", "-", "-", "-"
		if tl := j.Timeline; tl != nil {
			seconds := func(stage string) string {
				st, _ := tl.StageStat(stage) // zero when the stage never ran
				return fmt.Sprintf("%.3f", st.Seconds)
			}
			wall = fmt.Sprintf("%.3f", tl.WallSeconds)
			queued, running, commit = seconds("queued"), seconds("running"), seconds("artifact-commit")
		}
		exp := j.Spec.Experiment
		if j.Error != "" {
			exp += " (!)"
		}
		tab.AddRow(j.ID, j.State, exp, j.SubmittedAt.Format("15:04:05"),
			wall, queued, running, commit, fmt.Sprintf("%d", len(j.Artifacts)))
	}
	tab.Render(os.Stdout)
	return 0
}

// stageCheck is one parsed -check gate: "stage=queued,p99<100ms".
type stageCheck struct {
	stage string
	stat  string // p50 | p95 | p99 | max
	bound time.Duration
}

// checkPat matches the -check grammar. The percentile set mirrors
// metrics.Summary's fields.
var checkPat = regexp.MustCompile(`^stage=([a-z-]+),(p50|p95|p99|max)<(.+)$`)

// checkFlags collects repeatable -check flags (flag.Value).
type checkFlags []stageCheck

func (c *checkFlags) String() string { return fmt.Sprintf("%d checks", len(*c)) }

func (c *checkFlags) Set(s string) error {
	m := checkPat.FindStringSubmatch(s)
	if m == nil {
		return fmt.Errorf("want stage=NAME,p50|p95|p99|max<DURATION (e.g. stage=queued,p99<100ms), got %q", s)
	}
	if _, ok := obs.ParseStage(m[1]); !ok {
		return fmt.Errorf("unknown stage %q", m[1])
	}
	d, err := time.ParseDuration(m[3])
	if err != nil {
		return fmt.Errorf("bad duration in %q: %v", s, err)
	}
	*c = append(*c, stageCheck{stage: m[1], stat: m[2], bound: d})
	return nil
}

// eval gates one check against the snapshot's per-stage span samples.
func (c stageCheck) eval(tl *obs.TimelineSnapshot) error {
	samples := tl.StageSpanSeconds(c.stage)
	if len(samples) == 0 {
		return fmt.Errorf("stage %q has no spans in this timeline", c.stage)
	}
	sum := metrics.Summarize(samples)
	var got float64
	switch c.stat {
	case "p50":
		got = sum.P50
	case "p95":
		got = sum.P95
	case "p99":
		got = sum.P99
	case "max":
		got = sum.Max
	}
	if got >= c.bound.Seconds() {
		return fmt.Errorf("stage %q %s = %s, want < %s",
			c.stage, c.stat, time.Duration(got*float64(time.Second)).Round(time.Microsecond), c.bound)
	}
	return nil
}

// loadTimeline reads a TimelineSnapshot from a file (the timeline.json
// artifact) or, when path is empty, from the daemon's timeline endpoint.
func loadTimeline(path, addr, jobID string) (*obs.TimelineSnapshot, error) {
	var tl obs.TimelineSnapshot
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &tl); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return &tl, nil
	}
	if jobID == "" {
		return nil, fmt.Errorf("need a timeline.json path or -job ID")
	}
	url := normalizeAddr(addr) + "/v1/jobs/" + jobID + "/timeline"
	if err := getJSON(url, &tl); err != nil {
		return nil, err
	}
	return &tl, nil
}

// cmdTimeline renders one job's wall-clock spans as a waterfall plus
// per-stage statistics, and gates them with repeatable -check flags.
func cmdTimeline(args []string) int {
	fs := flag.NewFlagSet("dtlstat timeline", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "dtlserved address (host:port or URL)")
	job := fs.String("job", "", "job id to fetch from -addr (alternative to a timeline.json path)")
	jsonOut := fs.Bool("json", false, "emit the snapshot JSON instead of tables")
	var checks checkFlags
	fs.Var(&checks, "check", "repeatable gate: stage=NAME,p50|p95|p99|max<DURATION; exit nonzero on violation")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: dtlstat timeline [-json] [-check stage=queued,p99<100ms]... <timeline.json>
       dtlstat timeline [-json] [-check ...] -addr host:port -job j000001`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	path := ""
	switch fs.NArg() {
	case 0:
	case 1:
		path = fs.Arg(0)
	default:
		fs.Usage()
		return 2
	}

	tl, err := loadTimeline(path, *addr, *job)
	if err != nil {
		return fail(err)
	}

	if *jsonOut {
		if err := printJSON(tl); err != nil {
			return fail(err)
		}
	} else {
		renderTimeline(os.Stdout, tl)
	}

	bad := 0
	for _, c := range checks {
		if err := c.eval(tl); err != nil {
			fmt.Fprintln(os.Stderr, "dtlstat: FAIL:", err)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	if len(checks) > 0 && !*jsonOut {
		fmt.Printf("\ntimeline checks: %d PASS\n", len(checks))
	}
	return 0
}

// renderTimeline prints the per-stage stats table and the span waterfall.
func renderTimeline(w io.Writer, tl *obs.TimelineSnapshot) {
	id := tl.JobID
	if id == "" {
		id = "(unknown job)"
	}
	fmt.Fprintf(w, "%s  wall %.3fs  core %.3fs  start %s\n\n",
		id, tl.WallSeconds, tl.CoreSeconds, tl.Start.Format(time.RFC3339))

	tab := metrics.NewTable("stage", "kind", "count", "total_s", "share")
	for _, st := range tl.Stages {
		kind := "detail"
		if st.Core {
			kind = "core"
		}
		share := "-"
		if tl.WallSeconds > 0 {
			share = fmt.Sprintf("%.1f%%", 100*st.Seconds/tl.WallSeconds)
		}
		tab.AddRow(st.Stage, kind, fmt.Sprintf("%d", st.Count),
			fmt.Sprintf("%.6f", st.Seconds), share)
	}
	tab.Render(w)

	if len(tl.Spans) == 0 {
		return
	}
	// Waterfall: each span as a bar positioned on the job's wall clock.
	const width = 50
	wallUs := tl.WallSeconds * 1e6
	fmt.Fprintf(w, "\nwaterfall (%d spans", len(tl.Spans))
	if tl.DroppedSpans > 0 {
		fmt.Fprintf(w, ", %d dropped past cap", tl.DroppedSpans)
	}
	fmt.Fprintln(w, ")")
	for _, sp := range tl.Spans {
		bar := [width]byte{}
		for i := range bar {
			bar[i] = '.'
		}
		if wallUs > 0 {
			lo := int(float64(sp.StartUs) / wallUs * width)
			hi := int(float64(sp.StartUs+sp.DurUs) / wallUs * width)
			if lo > width-1 {
				lo = width - 1
			}
			if hi <= lo {
				hi = lo + 1 // every span gets at least one cell
			}
			if hi > width {
				hi = width
			}
			for i := lo; i < hi; i++ {
				bar[i] = '#'
			}
		}
		fmt.Fprintf(w, "  %-16s |%s| %9.3fms @ %.3fms\n",
			sp.Stage, bar, float64(sp.DurUs)/1e3, float64(sp.StartUs)/1e3)
	}
}
