package service

import (
	"encoding/json"
	"errors"
	"net/http"
)

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Kind classifies the failure for programmatic callers: "quota",
	// "admission", "invalid", or "internal".
	Kind string `json:"kind"`
}

// Handler returns the server's HTTP surface:
//
//	POST /v1/jobs   submit a JobRequest, respond with its JobResponse
//	GET  /metrics   Prometheus text exposition
//	GET  /healthz   {"status": "ok" | "draining"}
//
// Quota rejections answer 429, admission rejections (unknown tenant,
// full backlog, draining) 503, malformed jobs 400, and a job body over
// maxJobBody bytes 413.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// maxJobBody caps a job request body. A JobRequest is a dozen scalar
// fields, a few hundred bytes of JSON.
const maxJobBody = 64 << 10

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "invalid", "POST only")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "invalid", "decoding job: "+err.Error())
		return
	}
	resp, err := s.Submit(r.Context(), req)
	if err != nil {
		switch {
		case errors.Is(err, ErrQuotaExceeded):
			httpError(w, http.StatusTooManyRequests, "quota", err.Error())
		case errors.Is(err, ErrAdmissionRejected):
			httpError(w, http.StatusServiceUnavailable, "admission", err.Error())
		case errors.Is(err, ErrInvalidJob):
			httpError(w, http.StatusBadRequest, "invalid", err.Error())
		default:
			httpError(w, http.StatusInternalServerError, "internal", err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.WriteMetrics(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, kind, msg string) {
	writeJSON(w, code, errorBody{Error: msg, Kind: kind})
}
