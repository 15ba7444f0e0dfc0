package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/gio"
	"repro/internal/graph"
)

// Client talks to an ndpserve instance. It is used by ndprun -server,
// the served-vs-offline oracle, and the check.sh round-trip stage.
type Client struct {
	base   string
	tenant string
	hc     *http.Client
}

// NewClient builds a client for a base URL like "http://127.0.0.1:8090".
// tenant may be empty (the anonymous tenant).
func NewClient(base, tenant string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), tenant: tenant, hc: &http.Client{}}
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, contentType string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return b, resp.StatusCode, nil
}

// apiError decodes a wireError body into a Go error.
func apiError(path string, status int, body []byte) error {
	var we wireError
	if json.Unmarshal(body, &we) == nil && we.Error != "" {
		return fmt.Errorf("%s: %s (HTTP %d)", path, we.Error, status)
	}
	return fmt.Errorf("%s: HTTP %d", path, status)
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	body, status, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return apiError("/v1/healthz", status, body)
	}
	return nil
}

// PutSnapshotGraph uploads g under name in .gcsr binary form.
func (c *Client) PutSnapshotGraph(ctx context.Context, name string, g *graph.Graph) (SnapshotInfo, error) {
	var buf bytes.Buffer
	if err := gio.WriteBinary(&buf, g); err != nil {
		return SnapshotInfo{}, err
	}
	path := "/v1/snapshots/" + name
	body, status, err := c.do(ctx, http.MethodPut, path, &buf, "application/octet-stream")
	if err != nil {
		return SnapshotInfo{}, err
	}
	if status != http.StatusOK {
		return SnapshotInfo{}, apiError(path, status, body)
	}
	var info SnapshotInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return SnapshotInfo{}, fmt.Errorf("%s: decode: %w", path, err)
	}
	return info, nil
}

// Snapshots lists the server's snapshots.
func (c *Client) Snapshots(ctx context.Context) ([]SnapshotInfo, error) {
	body, status, err := c.do(ctx, http.MethodGet, "/v1/snapshots", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError("/v1/snapshots", status, body)
	}
	var out []SnapshotInfo
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("/v1/snapshots: decode: %w", err)
	}
	return out, nil
}

// Submit submits a job and returns its accepted status.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobInfo, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return JobInfo{}, err
	}
	body, status, err := c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(b), "application/json")
	if err != nil {
		return JobInfo{}, err
	}
	if status != http.StatusAccepted {
		return JobInfo{}, apiError("/v1/jobs", status, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return JobInfo{}, fmt.Errorf("/v1/jobs: decode: %w", err)
	}
	return info, nil
}

// jobInfo issues a request on the job resource and decodes the JobInfo
// every such route answers with.
func (c *Client) jobInfo(ctx context.Context, method, path string) (JobInfo, error) {
	body, status, err := c.do(ctx, method, path, nil, "")
	if err != nil {
		return JobInfo{}, err
	}
	if status != http.StatusOK {
		return JobInfo{}, apiError(path, status, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return JobInfo{}, fmt.Errorf("%s: decode: %w", path, err)
	}
	return info, nil
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (JobInfo, error) {
	return c.jobInfo(ctx, http.MethodGet, "/v1/jobs/"+id)
}

// Wait returns the job's status once it is terminal (or ctx ends). The
// waiting is the server's: each request parks there for up to MaxWait
// and is answered the moment the job finishes; a non-terminal answer
// means the bound ran out, and the request is issued again.
func (c *Client) Wait(ctx context.Context, id string) (JobInfo, error) {
	path := "/v1/jobs/" + id + "?wait=" + MaxWait.String()
	for {
		info, err := c.jobInfo(ctx, http.MethodGet, path)
		if err != nil {
			if ctx.Err() != nil {
				return JobInfo{}, ctx.Err()
			}
			return JobInfo{}, err
		}
		switch info.State {
		case StateDone, StateFailed, StateCancelled:
			return info, nil
		}
	}
}

// ResultBytes fetches the canonical result bytes of a done job.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	path := "/v1/jobs/" + id + "/result"
	body, status, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(path, status, body)
	}
	return body, nil
}

// Result fetches and decodes the result of a done job.
func (c *Client) Result(ctx context.Context, id string) (*WireResult, error) {
	body, err := c.ResultBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	var wr WireResult
	if err := json.Unmarshal(body, &wr); err != nil {
		return nil, fmt.Errorf("result %s: decode: %w", id, err)
	}
	return &wr, nil
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobInfo, error) {
	return c.jobInfo(ctx, http.MethodDelete, "/v1/jobs/"+id)
}

// Metrics fetches the server's counter snapshot as a name→value map.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	body, status, err := c.do(ctx, http.MethodGet, "/v1/metricz", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError("/v1/metricz", status, body)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("/v1/metricz: decode: %w", err)
	}
	out := make(map[string]int64, len(snap.Counters))
	for _, cv := range snap.Counters {
		out[cv.Name] = cv.Value
	}
	return out, nil
}
