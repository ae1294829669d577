package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ptlsim/internal/metrics"
)

// Handler exposes the daemon over HTTP:
//
//	POST /jobs             submit a Spec            → 202 Status
//	                       Idempotency-Key replay   → 200 original Status
//	                       queue full               → 429 + Retry-After
//	                       tenant quota / deadline  → 429 + tenant-scoped
//	                       shed                       Retry-After
//	                       draining                 → 503
//	                       stale campaign epoch     → 409 (fencing)
//	                       breaker open / bad spec  → 422
//	GET  /jobs             all job statuses         → 200 []Status
//	                       ?phase=&limit= filter and bound the response
//	GET  /version          build + protocol version → 200 Version
//	GET  /jobs/{id}        one job status           → 200 Status | 404
//	GET  /jobs/{id}/events SSE stream of the job's durable store
//	                       records, replayed from the WAL — clients
//	                       reconnect across daemon restarts with
//	                       Last-Event-ID (or ?after=seq)
//	GET  /healthz          liveness                 → 200 always
//	GET  /readyz           admission readiness      → 200 | 503 (draining)
//	GET  /statz            service counters         → 200 map[string]int64
//	GET  /metrics          Prometheus text exposition of the same
//	                       registry backing /statz
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		phase := State(q.Get("phase"))
		switch phase {
		case "", StateQueued, StateRunning, StateDone, StateFailed:
		default:
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown phase %q", phase))
			return
		}
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", v))
				return
			}
			limit = n
		}
		writeJSONResponse(w, http.StatusOK, d.JobsFiltered(phase, limit))
	})
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		writeJSONResponse(w, http.StatusOK, VersionInfo())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := d.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSONResponse(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !d.Accepting() {
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSONResponse(w, http.StatusOK, d.Counters())
	})
	mux.Handle("GET /metrics", metrics.Handler(d.Metrics()))
	return mux
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "bad job spec: "+err.Error())
		return
	}
	st, duplicate, err := d.SubmitKey(spec, r.Header.Get("Idempotency-Key"))
	switch {
	case duplicate:
		// A resubmit after a crash (or a client retry) of an already
		// accepted job: 200 with the original job, not a second 202.
		writeJSONResponse(w, http.StatusOK, st)
	case err == nil:
		writeJSONResponse(w, http.StatusAccepted, st)
	case errors.Is(err, ErrQueueFull):
		// Backpressure: the bounded queue is at depth. Retry-After is
		// the polite half of load shedding — computed from the measured
		// queue drain rate so recovering clients pace themselves to
		// reality.
		w.Header().Set("Retry-After", retryAfterSeconds(d.RetryAfter()))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrTenantQuota), errors.Is(err, ErrDeadlineShed):
		// Tenant-scoped backpressure: the quota breach (or shed) is this
		// tenant's own doing, so the hint reflects the tenant's backlog
		// drain rate — other tenants keep submitting unthrottled.
		w.Header().Set("Retry-After", retryAfterSeconds(d.RetryAfterTenant(spec.Tenant)))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrStaleEpoch):
		// Fencing: a superseded lease must not re-admit its job. 409 is
		// terminal for that epoch — the dispatcher must not retry it.
		httpError(w, http.StatusConflict, err.Error())
	default:
		// A tripped circuit breaker or an invalid spec.
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// retryAfterSeconds renders a duration as the Retry-After header's
// integer seconds, rounding up so clients never come back early.
func retryAfterSeconds(dur time.Duration) string {
	secs := int64((dur + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// handleEvents streams a job's durable store records as server-sent
// events. The stream is replayed from the WAL, not from daemon memory,
// so a client that reconnects after a daemon restart — sending the
// last Seq it saw as Last-Event-ID (or ?after=N) — resumes exactly
// where it left off (compacted-away history arrives as one synthetic
// "state" record). The stream ends after the terminal record.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	}
	if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	if _, _, _, ok := d.store.EventsWatch(id, -1); !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		recs, terminal, watch, ok := d.store.EventsWatch(id, after)
		if !ok {
			return
		}
		for _, rec := range recs {
			data, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", rec.Seq, rec.Op, data)
			after = rec.Seq
		}
		flusher.Flush()
		if terminal {
			return
		}
		select {
		case <-watch:
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSONResponse(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSONResponse(w, code, map[string]string{"error": msg})
}
