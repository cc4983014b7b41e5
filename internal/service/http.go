package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"tap25d/internal/buildinfo"
	"tap25d/internal/obs"
)

// drainRetryAfterSecs is the flat Retry-After hint on draining rejections: a
// drain means a restart or a handoff, not a backlog, so the hint is a typical
// redeploy window rather than a queue-depth estimate.
const drainRetryAfterSecs = 10

// ssePingInterval is the keepalive cadence of the SSE event streams: idle
// streams carry a ": ping" comment frame this often, so NATs, LBs and proxies
// with idle timeouts don't sever subscribers of long-quiet jobs. A package
// var so tests can shrink it.
var ssePingInterval = 15 * time.Second

// apiError is the uniform error body of the HTTP API:
//
//	{"error": {"code": "quota_exhausted", "message": "..."}}
//
// Codes are stable strings documented in docs/SERVICE.md; messages are
// human-readable and may change.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{"error": {Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Handler builds the service's HTTP API:
//
//	POST   /v1/jobs             submit a JobSpec → 201 Job (200 on idempotent replay)
//	GET    /v1/jobs             list jobs, newest first
//	GET    /v1/jobs/{id}        one job
//	DELETE /v1/jobs/{id}        cancel (queued → canceled; running → interrupt)
//	GET    /v1/jobs/{id}/events Server-Sent Events stream of the job's RunEvents
//	GET    /v1/jobs/{id}/trace  the job's span trace — raw JSONL, or Chrome/Perfetto
//	                            trace-event JSON with ?format=perfetto
//	GET    /v1/slo              current SLO statuses (targets, burn rates, health)
//	GET    /v1/healthz          {"status":"ok","version":...} — "draining" with 503 during drain
//	GET    /metrics             Prometheus text exposition (via the shared Observer)
//
// Error bodies follow the apiError envelope; docs/SERVICE.md is the full
// reference.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, "not_found", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, j)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/slo", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"slos": s.obs.SLOStatuses()})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		code := http.StatusOK
		if s.Draining() {
			status = "draining"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]string{"status": status, "version": buildinfo.Version()})
	})
	if s.obs != nil {
		mux.Handle("GET /metrics", obs.Handler(s.obs))
	}
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding job spec: %v", err))
		return
	}
	job, created, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQuotaExhausted):
		// The tenant must wait for its own jobs to finish; the backlog-derived
		// hint is the honest earliest time that could have happened.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		writeError(w, http.StatusTooManyRequests, "quota_exhausted", err.Error())
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		writeError(w, http.StatusServiceUnavailable, "overloaded", err.Error())
	case errors.Is(err, ErrDraining):
		// This process is going away; point clients at its replacement's
		// typical restart window rather than the backlog.
		w.Header().Set("Retry-After", strconv.Itoa(drainRetryAfterSecs))
		writeError(w, http.StatusServiceUnavailable, "draining", err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
	case created:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusCreated, job)
	default:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusOK, job)
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ErrTerminal):
		writeError(w, http.StatusConflict, "terminal", err.Error())
	case err != nil:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	default:
		writeJSON(w, http.StatusOK, job)
	}
}

// handleTrace serves a job's span trace file. The default response is the raw
// JSON Lines file (one obs.SpanRecord per line, exactly as written);
// ?format=perfetto converts it to Chrome trace-event JSON that Perfetto and
// chrome://tracing open directly. Traces stream live: a running job's trace
// can be fetched mid-run (a torn trailing line is tolerated by the converter).
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Get(id); err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	if s.tracesDir == "" {
		writeError(w, http.StatusNotFound, "no_trace", "tracing is disabled (service has no observer)")
		return
	}
	f, err := os.Open(s.tracePath(id))
	if err != nil {
		writeError(w, http.StatusNotFound, "no_trace", "job has no trace file")
		return
	}
	defer f.Close()
	switch r.URL.Query().Get("format") {
	case "":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		io.Copy(w, f)
	case "perfetto":
		recs, err := obs.ReadTraceRecords(f)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "bad_trace", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		obs.WritePerfettoTrace(w, recs)
	default:
		writeError(w, http.StatusBadRequest, "bad_format",
			"unknown trace format (want empty for raw JSONL or \"perfetto\")")
	}
}

// handleEvents streams a job's RunEvents as Server-Sent Events. Each placer
// event becomes one frame with the event kind as the SSE event name:
//
//	event: step
//	data: {"kind":"step","run":0,...}
//
// When the job reaches a terminal state a final frame with event name "job"
// carries the full job record, then the stream ends. Clients that reconnect
// replay the retained tail of the history first.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, err := s.Subscribe(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "no_flush", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	writeFrame := func(name string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	// Keepalive: SSE comment frames (": ping") at a steady cadence while the
	// stream is idle. Comments are invisible to EventSource clients but keep
	// the TCP path warm through idle-timeout middleboxes.
	ping := time.NewTicker(ssePingInterval)
	defer ping.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-ping.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case e, ok := <-ch:
			if !ok {
				// Stream closed: the job reached a terminal state (or had
				// already). Send the final record and end.
				if job, err := s.Get(id); err == nil {
					writeFrame("job", job)
				}
				return
			}
			if !writeFrame(e.Kind, e) {
				return
			}
		}
	}
}
