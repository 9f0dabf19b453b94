package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dtl/internal/experiments"
	"dtl/internal/obs"
	"dtl/internal/telemetry"
)

// ingestArtifacts lands a finished run in the store. Every job gets:
//
//	report.txt     the human-readable experiment report
//	result.json    the machine-readable experiments.Result
//
// and, when the experiment produced them (only DTL-driven experiments write
// traces; every sampled run writes metrics):
//
//	trace.<ext>    the run trace in the requested encoding
//	metrics.csv    the sampled metrics registry
//	ledger.json    the (vm, rank, cause) attribution cost ledger
//	summary.json   telemetry.TraceSummary of the trace (the diff input)
//	timeline.json  the job's wall-clock span log (obs.TimelineSnapshot)
//
// JSON artifacts are marshaled with sorted map keys (encoding/json's map
// ordering), so identical runs yield identical bytes and therefore identical
// store digests. timeline.json is the one deliberate exception: it records
// wall-clock measurements, so its bytes differ across otherwise identical
// runs — determinism gates compare digests excluding that name.
func (s *Server) ingestArtifacts(j *job, work string, report []byte, res experiments.Result) ([]ArtifactInfo, error) {
	var arts []ArtifactInfo
	putBytes := func(name string, b []byte) error {
		t0 := time.Now()
		digest, size, err := s.store.PutBytes(b)
		if err != nil {
			return fmt.Errorf("serve: storing %s: %w", name, err)
		}
		s.stage(j, obs.StageStoreWrite, t0, time.Now())
		arts = append(arts, ArtifactInfo{Name: name, Digest: digest, Size: size})
		return nil
	}

	if err := putBytes("report.txt", report); err != nil {
		return nil, err
	}
	resJSON, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := putBytes("result.json", append(resJSON, '\n')); err != nil {
		return nil, err
	}

	traceName := j.spec.traceArtifactName()
	stream := filepath.Join(work, "trace.jsonl")
	if _, err := os.Stat(stream); err == nil && traceName != "trace.jsonl" {
		format, _ := telemetry.ParseTraceFormat(j.spec.TraceFormat)
		if err := telemetry.ConvertTraceFile(stream, filepath.Join(work, traceName), format); err != nil {
			return nil, fmt.Errorf("serve: converting trace: %w", err)
		}
	}
	for _, name := range []string{traceName, "metrics.csv", "ledger.json"} {
		path := filepath.Join(work, name)
		if _, err := os.Stat(path); err != nil {
			continue // the experiment does not drive this sink
		}
		t0 := time.Now()
		digest, size, err := s.store.PutFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: storing %s: %w", name, err)
		}
		s.stage(j, obs.StageStoreWrite, t0, time.Now())
		arts = append(arts, ArtifactInfo{Name: name, Digest: digest, Size: size})
	}

	if sum, err := summarizeFile(stream); err == nil && sum != nil {
		sumJSON, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := putBytes("summary.json", append(sumJSON, '\n')); err != nil {
			return nil, err
		}
	}

	// timeline.json: the wall-clock span log accumulated so far. It is
	// written mid artifact-commit by necessity, so its own commit span is
	// absent from the artifact; the complete timeline (including
	// artifact-commit) lives in the job status and GET /v1/jobs/{id}/timeline.
	snap := j.timeline.Snapshot(time.Now())
	snap.JobID = j.id
	tlJSON, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := putBytes("timeline.json", append(tlJSON, '\n')); err != nil {
		return nil, err
	}
	return arts, nil
}

// summarizeFile summarizes a JSONL trace file, or returns (nil, nil) when
// the file does not exist or holds no power spans (experiments without a
// DTL).
func summarizeFile(path string) (*telemetry.TraceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil
	}
	defer f.Close()
	sum, err := telemetry.SummarizeJSONL(f)
	if err != nil {
		return nil, err
	}
	if len(sum.Residency) == 0 {
		return nil, nil
	}
	return sum, nil
}

// summaryOf loads a done job's summary.json artifact, the trace summary
// ingestArtifacts took from the run's JSONL stream, for the diff endpoint.
func (s *Server) summaryOf(id string) (*telemetry.TraceSummary, error) {
	j, ok := s.jobByID(id)
	if !ok {
		return nil, fmt.Errorf("unknown job %q", id)
	}
	st := j.status()
	if st.State != StateDone {
		return nil, fmt.Errorf("job %s is %s, not done", id, st.State)
	}
	art, ok := j.artifact("summary.json")
	if !ok {
		return nil, fmt.Errorf("job %s has no trace summary (experiment %q does not drive a DTL)",
			id, j.spec.Experiment)
	}
	rc, err := s.store.Open(art.Digest)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	var sum telemetry.TraceSummary
	if err := json.NewDecoder(rc).Decode(&sum); err != nil {
		return nil, fmt.Errorf("reading job %s trace summary: %w", id, err)
	}
	return &sum, nil
}
