package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies: the largest legitimate payload is
// an outcome batch (ShardSize small records), far below this.
const maxBodyBytes = 32 << 20

// Handler returns the coordinator's HTTP API:
//
//	POST /api/v1/campaigns             submit a CampaignSpec
//	GET  /api/v1/campaigns             list campaign progress
//	GET  /api/v1/campaigns/{id}        one campaign's progress
//	GET  /api/v1/campaigns/{id}/report finished campaign.Result JSON
//	POST /api/v1/lease                 pull a shard (204 when none)
//	POST /api/v1/heartbeat             extend a lease
//	POST /api/v1/outcomes              return a shard's outcomes
//	GET  /api/v1/healthz               liveness
//	GET  /metrics                      Prometheus text exposition
//	GET  /debug/pprof/...              runtime profiler
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		if err := readJSON(r, &spec); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := c.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrBusy) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.List())
	})
	mux.HandleFunc("GET /api/v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		p, err := c.Progress(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		res, err := c.Report(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNotReady):
			writeError(w, http.StatusTooEarly, err)
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, http.StatusOK, res)
		}
	})
	mux.HandleFunc("POST /api/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := readJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		l, err := c.Lease(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if l == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, l)
	})
	mux.HandleFunc("POST /api/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if err := readJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := c.Heartbeat(req); err != nil {
			writeError(w, http.StatusGone, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /api/v1/outcomes", func(w http.ResponseWriter, r *http.Request) {
		var batch OutcomeBatch
		if err := readJSON(r, &batch); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := c.Outcomes(batch); err != nil {
			writeError(w, http.StatusGone, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /api/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "api": APIVersion})
	})
	obs.Mount(mux)
	return mux
}

// LogRequests wraps h, reporting every request's method, path, status
// and duration to fn once the response completes — the per-request
// access log both faultsimd roles hang off slog.
func LogRequests(h http.Handler, fn func(method, path string, status int, d time.Duration)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		fn(r.Method, r.URL.Path, rec.status, time.Since(start))
	})
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// readJSON decodes a request body into v, rejecting fields v does not
// have: a campaign submission from an older client (config.Protect,
// when the engine still replayed protected campaigns) must fail, not
// run silently unprotected.
func readJSON(r *http.Request, v any) error {
	defer io.Copy(io.Discard, r.Body)
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("distrib: decode request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Compact on the wire: indenting costs the fleet's allocations and
	// serves no reader. Encoding failures here are client-disconnects;
	// nothing to do.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
