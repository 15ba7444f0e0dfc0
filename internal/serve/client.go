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
	b, err := readBody(resp)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return b, resp.StatusCode, nil
}

// maxSizedBody is the largest declared length readBody allocates up front;
// a server's Content-Length is trusted only up to it.
const maxSizedBody = 64 << 20

// readBody reads a body of declared length into one buffer of exactly
// that size, and an undeclared or larger one through io.ReadAll's growing
// buffer. A body shorter than it declared is io.ErrUnexpectedEOF. The last
// bytes arrive with io.EOF from net/http, so an exact read leaves the
// connection reusable.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, b); err != nil {
		return nil, err
	}
	return b, nil
}

// apiError decodes a wireError body into an error that wraps the sentinel
// the status stands for (errStatus backwards), so errors.Is works across
// HTTP; the text is the server's.
func apiError(path string, status int, body []byte) error {
	e := &statusError{msg: fmt.Sprintf("%s: HTTP %d", path, status)}
	var we wireError
	if json.Unmarshal(body, &we) == nil && we.Error != "" {
		e.msg = fmt.Sprintf("%s: %s (HTTP %d)", path, we.Error, status)
	}
	switch status {
	case http.StatusNotFound:
		e.is = ErrUnknownSnapshot // POST /v1/jobs names a snapshot
		if strings.HasPrefix(path, "/v1/jobs/") {
			e.is = ErrUnknownJob
		}
	case http.StatusConflict:
		e.is = ErrNotDone
	case http.StatusGone:
		e.is = ErrJobExpired
	case http.StatusServiceUnavailable:
		e.is = ErrStopped
	}
	return e
}

type statusError struct {
	msg string
	is  error // nil for a status no one sentinel maps to
}

func (e *statusError) Error() string { return e.msg }
func (e *statusError) Unwrap() error { return e.is }

// call issues a request, requires the status want, and decodes the JSON
// body into out (nil to discard it).
func (c *Client) call(ctx context.Context, method, path string, body io.Reader, contentType string, want int, out any) error {
	b, status, err := c.do(ctx, method, path, body, contentType)
	if err != nil {
		return err
	}
	if status != want {
		return apiError(path, status, b)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	return nil
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/v1/healthz", nil, "", http.StatusOK, nil)
}

// PutSnapshotGraph uploads g under name in .gcsr binary form.
func (c *Client) PutSnapshotGraph(ctx context.Context, name string, g *graph.Graph) (info SnapshotInfo, err error) {
	var buf bytes.Buffer
	if err := gio.WriteBinary(&buf, g); err != nil {
		return info, err
	}
	err = c.call(ctx, http.MethodPut, "/v1/snapshots/"+name, &buf, "application/octet-stream", http.StatusOK, &info)
	return info, err
}

// Snapshots lists the server's snapshots.
func (c *Client) Snapshots(ctx context.Context) (out []SnapshotInfo, err error) {
	err = c.call(ctx, http.MethodGet, "/v1/snapshots", nil, "", http.StatusOK, &out)
	return out, err
}

// Submit submits a job and returns its accepted status.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (info JobInfo, err error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return info, err
	}
	err = c.call(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(b), "application/json", http.StatusAccepted, &info)
	return info, err
}

// jobInfo issues a request on the job resource and decodes the JobInfo
// every such route answers with.
func (c *Client) jobInfo(ctx context.Context, method, path string) (info JobInfo, err error) {
	err = c.call(ctx, method, path, nil, "", http.StatusOK, &info)
	return info, err
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
	var snap metricsSnapshot
	if err := c.call(ctx, http.MethodGet, "/v1/metricz", nil, "", http.StatusOK, &snap); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(snap.Counters))
	for _, cv := range snap.Counters {
		out[cv.Name] = cv.Value
	}
	return out, nil
}
