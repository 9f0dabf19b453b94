// Package client is a small Go client for the dtlserved HTTP API. It speaks
// the wire types from internal/serve directly, so a Go caller gets the same
// JobSpec/JobStatus/DiffResponse shapes the daemon serves.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dtl/internal/experiments"
	"dtl/internal/serve"
)

// Client talks to one dtlserved instance. Every call is a single attempt;
// a non-2xx response comes back as an *APIError.
type Client struct {
	base string
	http *http.Client
}

// New builds a client for a daemon at base (e.g. "http://127.0.0.1:8080").
func New(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		// Streams are long-lived; rely on context deadlines, not a client-wide
		// timeout that would sever them.
		http: &http.Client{},
	}
}

// BaseURL reports the daemon base URL this client targets.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx response, carrying the server's error body.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter string // set on 429
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dtlserved: %d: %s", e.StatusCode, e.Message)
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiErr(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func apiErr(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(raw, &body) != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(raw))
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Message:    body.Error,
		RetryAfter: resp.Header.Get("Retry-After"),
	}
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Experiments lists the runnable experiment ids.
func (c *Client) Experiments(ctx context.Context) ([]serve.ExperimentInfo, error) {
	var out []serve.ExperimentInfo
	err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out)
	return out, err
}

// Submit enqueues a job. A full queue or a draining server surfaces as an
// *APIError with StatusCode 429 or 503.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists every job in submission order.
func (c *Client) Jobs(ctx context.Context) ([]serve.JobStatus, error) {
	var out []serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel requests cancellation of a running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil)
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string) (serve.JobStatus, error) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Stream follows a job's NDJSON stream, invoking onSnapshot for each frame,
// and returns the final status once the job finishes. A nil onSnapshot just
// waits for the terminal status over the stream.
func (c *Client) Stream(ctx context.Context, id string, onSnapshot func(experiments.WatchSnapshot)) (serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return serve.JobStatus{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return serve.JobStatus{}, apiErr(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type     string                     `json:"type"`
			Snapshot *experiments.WatchSnapshot `json:"snapshot"`
			Status   *serve.JobStatus           `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return serve.JobStatus{}, fmt.Errorf("bad stream frame: %w", err)
		}
		switch ev.Type {
		case "snapshot":
			if onSnapshot != nil && ev.Snapshot != nil {
				onSnapshot(*ev.Snapshot)
			}
		case "status":
			if ev.Status != nil {
				return *ev.Status, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return serve.JobStatus{}, err
	}
	return serve.JobStatus{}, fmt.Errorf("stream for job %s ended without a status event", id)
}

// Artifact fetches one artifact's bytes.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+id+"/artifacts/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, apiErr(resp)
	}
	return io.ReadAll(resp.Body)
}

// Diff gates job b's trace against job a's under the given tolerances.
func (c *Client) Diff(ctx context.Context, req serve.DiffRequest) (serve.DiffResponse, error) {
	var out serve.DiffResponse
	err := c.do(ctx, http.MethodPost, "/v1/diff", req, &out)
	return out, err
}
