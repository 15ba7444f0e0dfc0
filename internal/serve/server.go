package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/gio"
)

// TenantHeader names the submitting tenant; empty means the anonymous
// tenant (which still has a quota bucket of its own).
const TenantHeader = "X-Tenant"

// maxSnapshotBody bounds snapshot upload size (1 GiB of encoded graph).
const maxSnapshotBody = 1 << 30

// Server is the HTTP face of the service. Routes (v1):
//
//	GET    /v1/healthz           liveness
//	GET    /v1/metricz           counter snapshot
//	GET    /v1/snapshots         list snapshots
//	PUT    /v1/snapshots/{name}  upload a graph (.gcsr binary body)
//	POST   /v1/jobs              submit a job (JobSpec body, X-Tenant header)
//	GET    /v1/jobs/{id}         job status; ?wait=<Go duration> parks the
//	                             request until the job is terminal or the
//	                             duration (at most MaxWait) has elapsed
//	GET    /v1/jobs/{id}/result  canonical result bytes of a done job
//	DELETE /v1/jobs/{id}         cancel a job
//
// The three job routes answer 404 for an id never issued and 410 Gone for
// one issued but no longer held; /result also answers 410 for a done job
// whose bytes the result cache has evicted. 410 means resubmit.
type Server struct {
	mgr         *Manager
	mux         *http.ServeMux
	maxSnapshot int64 // upload bound; a field so a test can shrink it
}

// NewServer wires the routes over a manager.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), maxSnapshot: maxSnapshotBody}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metricz", s.handleMetricz)
	s.mux.HandleFunc("GET /v1/snapshots", s.handleListSnapshots)
	s.mux.HandleFunc("PUT /v1/snapshots/{name}", s.handlePutSnapshot)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// wireError is the JSON error body.
type wireError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wireError{Error: err.Error()})
}

// errStatus maps manager errors to HTTP status codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownSnapshot), errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrJobExpired):
		return http.StatusGone
	case errors.Is(err, ErrNotDone):
		return http.StatusConflict
	case errors.Is(err, ErrStopped):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetricz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, snapshotWire(s.mgr.Metrics()))
}

func (s *Server) handleListSnapshots(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Registry().List())
}

func (s *Server) handlePutSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("snapshot name is required"))
		return
	}
	g, err := gio.ReadBinary(http.MaxBytesReader(w, r.Body, s.maxSnapshot))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decode graph: %w", err))
		return
	}
	info, err := s.mgr.Registry().Put(name, g)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	job, err := s.mgr.Submit(r.Header.Get(TenantHeader), spec)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.mgr.info(job))
}

// parseWait reads the status route's wait parameter: absent means do not
// park, a Go duration above MaxWait is clamped to it rather than refused
// (the answer is the same either way: a non-terminal state, ask again),
// and anything unparsable or negative is an error.
func parseWait(q url.Values) (time.Duration, error) {
	if !q.Has("wait") {
		return 0, nil
	}
	d, err := time.ParseDuration(q.Get("wait"))
	if err != nil {
		return 0, fmt.Errorf("wait: %w", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("wait: negative duration %s", d)
	}
	return min(d, MaxWait), nil
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	d, err := parseWait(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.mgr.wait(r.Context(), r.PathValue("id"), d)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	b, err := s.mgr.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	// The stored canonical bytes go out verbatim — the byte-for-byte
	// identity the served oracle asserts includes this handler. Their
	// length goes first, so the client can read them into one buffer of
	// that size instead of growing one chunk by chunk.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Cancel(id); err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	info, err := s.mgr.Info(id)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}
