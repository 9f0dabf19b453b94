package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"dtl/internal/experiments"
	"dtl/internal/telemetry"
)

// apiError is every non-2xx body: {"error": "..."}.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// ExperimentInfo is one row of GET /v1/experiments.
type ExperimentInfo struct {
	ID   string `json:"id"`
	Name string `json:"name"`
}

// DiffRequest is the POST /v1/diff body: compare the traces of two done jobs
// (A the baseline, B the candidate) under the same tolerance bands `dtlstat
// diff` gates on. Zero tolerances disable the corresponding check.
type DiffRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	// Share is the max absolute residency-share drift per state (0.05 = 5 pp).
	Share float64 `json:"share,omitempty"`
	// Lat is the max relative migration-percentile shift (0.25 = 25%).
	Lat float64 `json:"lat,omitempty"`
	// Energy is the max relative energy-proxy drift.
	Energy float64 `json:"energy,omitempty"`
}

// DiffResponse is the structured verdict.
type DiffResponse struct {
	A           string                      `json:"a"`
	B           string                      `json:"b"`
	Pass        bool                        `json:"pass"`
	Violations  []string                    `json:"violations,omitempty"`
	Aggregate   []telemetry.ShareDelta      `json:"aggregate"`
	Percentile  []telemetry.PercentileDelta `json:"percentiles,omitempty"`
	EnergyA     float64                     `json:"energy_a"`
	EnergyB     float64                     `json:"energy_b"`
	EnergyPct   float64                     `json:"energy_delta_pct"`
	MigrationsA int                         `json:"migrations_a"`
	MigrationsB int                         `json:"migrations_b"`
}

// Handler builds the daemon's HTTP API:
//
//	GET  /healthz                       liveness
//	GET  /metrics                       Prometheus text exposition
//	GET  /v1/experiments                runnable experiment ids
//	POST /v1/jobs                       submit (202; 400/429/503 on reject)
//	GET  /v1/jobs                       list in submission order; ?state=
//	                                    filters by lifecycle state
//	GET  /v1/jobs/{id}                  status (includes the wall-clock timeline)
//	POST /v1/jobs/{id}/cancel           cancel a running job
//	GET  /v1/jobs/{id}/stream           live snapshots (NDJSON, or SSE when
//	                                    the client sends Accept: text/event-stream)
//	GET  /v1/jobs/{id}/timeline         wall-clock span timeline; ?format=chrome
//	                                    renders a Chrome trace-event file
//	GET  /v1/jobs/{id}/artifacts        list artifacts of a done job
//	GET  /v1/jobs/{id}/artifacts/{name} fetch one artifact's bytes
//	POST /v1/diff                       gate job B's trace against job A's
//
// When Config.EnablePprof is set, net/http/pprof is mounted under
// /debug/pprof for live profiling.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		var out []ExperimentInfo
		for _, e := range experiments.All() {
			out = append(out, ExperimentInfo{ID: e.ID, Name: e.Name})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		all := s.Jobs()
		q := r.URL.Query().Get("state")
		if q == "" {
			writeJSON(w, http.StatusOK, all)
			return
		}
		switch st := State(q); st {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
			out := make([]JobStatus, 0, len(all))
			for _, j := range all {
				if j.State == st {
					out = append(out, j)
				}
			}
			writeJSON(w, http.StatusOK, out)
		default:
			writeError(w, http.StatusBadRequest,
				"unknown state %q (want queued, running, done, failed or canceled)", q)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := s.Job(id); !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		if !s.Cancel(id) {
			writeError(w, http.StatusConflict, "job %s is not running", id)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "cancel requested"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		if !st.State.Terminal() {
			writeError(w, http.StatusConflict, "job %s is %s; artifacts appear when it finishes", st.ID, st.State)
			return
		}
		writeJSON(w, http.StatusOK, st.Artifacts)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("POST /v1/diff", s.handleDiff)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleTimeline serves a job's wall-clock timeline at any lifecycle state —
// a queued or running job reports its spans so far. ?format=chrome returns a
// Chrome trace-event file that opens in the same viewer as the job's
// virtual-time trace artifact.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	snap := j.timeline.Snapshot(time.Now())
	snap.JobID = j.id
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		writeJSON(w, http.StatusOK, snap)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		snap.WriteChrome(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown timeline format %q (want json or chrome)", f)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	v := metricsView{
		queueDepth: len(s.queue),
		queueCap:   s.cfg.QueueDepth,
		workers:    s.cfg.Workers,
		draining:   s.draining,
		crashed:    s.crashed,
		recovery:   s.recovery,
		chaos:      s.chaos,
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writeMetrics(w, v)
}

// retryAfter is the backoff hint, in seconds, sent with a 429.
const retryAfter = "1"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrCrashed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrJournal):
		writeError(w, http.StatusInternalServerError, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		// A cache hit hands back an already-finished job: 200, not 202 — the
		// caller can tell nothing new was enqueued.
		code := http.StatusAccepted
		if st.State.Terminal() {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	}
}

// streamEvent is one line of the job stream: a snapshot while the job runs,
// then a single final status event.
type streamEvent struct {
	Type     string                     `json:"type"` // "snapshot" | "status"
	Snapshot *experiments.WatchSnapshot `json:"snapshot,omitempty"`
	Status   *JobStatus                 `json:"status,omitempty"`
}

// handleStream follows a job live. The default encoding is NDJSON (one JSON
// event per line); clients that send Accept: text/event-stream get SSE with
// the same payloads in `data:` frames. Either way the stream ends with a
// status event once the job reaches a terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	emit := func(ev streamEvent) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}

	ch, unsub := j.subscribe()
	defer unsub()
	for {
		select {
		case snap := <-ch:
			if !emit(streamEvent{Type: "snapshot", Snapshot: &snap}) {
				return
			}
		case <-j.done:
			// Drain the snapshot published just before the terminal state so
			// the client sees the final progress frame, then close with status.
			select {
			case snap := <-ch:
				if !emit(streamEvent{Type: "snapshot", Snapshot: &snap}) {
					return
				}
			default:
			}
			st := j.status()
			emit(streamEvent{Type: "status", Status: &st})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	j, ok := s.jobByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	art, ok := j.artifact(name)
	if !ok {
		writeError(w, http.StatusNotFound, "job %s has no artifact %q", id, name)
		return
	}
	rc, err := s.store.Open(art.Digest)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", artifactContentType(name))
	w.Header().Set("Content-Length", strconv.FormatInt(art.Size, 10))
	w.Header().Set("X-Artifact-Digest", art.Digest)
	io.Copy(w, rc)
}

func artifactContentType(name string) string {
	switch {
	case name == "metrics.csv" || name == "trace.csv":
		return "text/csv; charset=utf-8"
	case name == "trace.jsonl":
		return "application/x-ndjson"
	case name == "report.txt":
		return "text/plain; charset=utf-8"
	default:
		return "application/json"
	}
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad diff request: %v", err)
		return
	}
	if req.A == "" || req.B == "" {
		writeError(w, http.StatusBadRequest, "diff needs job ids in both \"a\" and \"b\"")
		return
	}
	sumA, err := s.summaryOf(req.A)
	if err != nil {
		writeError(w, diffErrCode(s, req.A), "%v", err)
		return
	}
	sumB, err := s.summaryOf(req.B)
	if err != nil {
		writeError(w, diffErrCode(s, req.B), "%v", err)
		return
	}
	d := telemetry.DiffSummaries(sumA, sumB)
	violations := d.Check(telemetry.DiffTolerance{
		Share:      req.Share,
		LatFrac:    req.Lat,
		EnergyFrac: req.Energy,
	})
	writeJSON(w, http.StatusOK, DiffResponse{
		A:           req.A,
		B:           req.B,
		Pass:        len(violations) == 0,
		Violations:  violations,
		Aggregate:   d.Aggregate,
		Percentile:  d.Percentiles,
		EnergyA:     d.EnergyA,
		EnergyB:     d.EnergyB,
		EnergyPct:   100 * d.EnergyDelta(),
		MigrationsA: d.MigrationsA,
		MigrationsB: d.MigrationsB,
	})
}

// diffErrCode distinguishes "no such job" (404) from "job not diffable
// yet / no trace" (409) for the diff endpoint's error paths.
func diffErrCode(s *Server, id string) int {
	if _, ok := s.jobByID(id); !ok {
		return http.StatusNotFound
	}
	return http.StatusConflict
}
