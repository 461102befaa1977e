package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// heartbeatEvery is the SSE keepalive comment interval: frequent enough
// that idle proxies keep the stream open, rare enough to be free.
const heartbeatEvery = 15 * time.Second

// Register wires the sweep endpoints onto mux. Patterns use Go 1.22
// method+wildcard routing, so they compose with the service's own
// handler on one mux without path-prefix gymnastics.
func (m *Manager) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sweeps", m.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", m.handleStatus)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", m.handleCancel)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", m.handleEvents)
}

// submitResponse is the POST /v1/sweeps reply.
type submitResponse struct {
	ID string `json:"id"`
	// Existing reports an idempotent re-submission: the identical job was
	// already accepted (possibly resumed from a previous process life).
	Existing bool `json:"existing"`
	Units    int  `json:"units"`
	// EventsURL is where to stream the job's results from.
	EventsURL string `json:"events_url"`
	RequestID string `json:"request_id"`
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rid := obs.EchoRequestID(w, r)
	var spec SweepSpec
	if err := obs.DecodeBody(w, r, &spec); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "invalid sweep spec: "+err.Error(), rid)
		return
	}
	job, existing, err := m.Submit(spec)
	if err != nil {
		code := http.StatusInternalServerError
		var bad errBadSpec
		switch {
		case errors.As(err, &bad):
			code = http.StatusBadRequest
		case errors.Is(err, ErrShuttingDown):
			code = http.StatusServiceUnavailable
		}
		obs.WriteError(w, code, err.Error(), rid)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/sweeps/"+job.ID)
	if existing {
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(submitResponse{
		ID:        job.ID,
		Existing:  existing,
		Units:     len(job.Units),
		EventsURL: "/v1/sweeps/" + job.ID + "/events",
		RequestID: rid,
	})
}

// statusResponse is the GET /v1/sweeps/{id} reply.
type statusResponse struct {
	ID      string `json:"id"`
	Epoch   string `json:"epoch"`
	Tenant  string `json:"tenant"`
	Weight  int    `json:"weight"`
	Units   int    `json:"units"`
	Pending int    `json:"pending"`
	Running int    `json:"running"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	// Cancelled counts units terminated by DELETE before they ran.
	Cancelled int `json:"cancelled,omitempty"`
	// Resumed reports the job was re-materialized from the durable store
	// after a restart; finished units then complete as store hits.
	Resumed bool `json:"resumed,omitempty"`
	// JobCancelled reports the job was terminated by DELETE.
	JobCancelled bool   `json:"job_cancelled,omitempty"`
	Complete     bool   `json:"complete"`
	RequestID    string `json:"request_id"`
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	rid := obs.EchoRequestID(w, r)
	job, ok := m.Job(r.PathValue("id"))
	if !ok {
		obs.WriteError(w, http.StatusNotFound, "unknown sweep job", rid)
		return
	}
	pending, running, done, failed, cancelled := job.CountsWithCancelled()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statusResponse{
		ID:           job.ID,
		Epoch:        job.Epoch,
		Tenant:       job.Spec.Tenant,
		Weight:       job.Spec.Weight,
		Units:        len(job.Units),
		Pending:      pending,
		Running:      running,
		Done:         done,
		Failed:       failed,
		Cancelled:    cancelled,
		Resumed:      job.Resumed,
		JobCancelled: job.Cancelled(),
		Complete:     job.Done(),
		RequestID:    rid,
	})
}

// cancelResponse is the DELETE /v1/sweeps/{id} reply.
type cancelResponse struct {
	ID string `json:"id"`
	// Cancelled reports this request did the cancelling; false means the
	// job had already finished or was already cancelled (the DELETE is
	// idempotent either way).
	Cancelled bool   `json:"cancelled"`
	RequestID string `json:"request_id"`
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	rid := obs.EchoRequestID(w, r)
	job, found, cancelled := m.Cancel(r.PathValue("id"))
	if !found {
		obs.WriteError(w, http.StatusNotFound, "unknown sweep job", rid)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(cancelResponse{ID: job.ID, Cancelled: cancelled, RequestID: rid})
}

// resumeSeq decides where an event stream starts: at the event after the
// client's Last-Event-ID when its epoch matches this materialization of
// the job, and at the beginning otherwise. A stale epoch means the job
// was re-run (restart) and completion order may differ, so per-seq resume
// would silently skip results; the full replay trades duplicates for a
// no-gaps guarantee, and events are idempotent to apply (keyed results).
func resumeSeq(job *Job, lastEventID string) int {
	epoch, seqStr, ok := strings.Cut(lastEventID, "-")
	if !ok || epoch != job.Epoch {
		return 0
	}
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq < 0 {
		return 0
	}
	return seq
}

func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	rid := obs.EchoRequestID(w, r)
	job, ok := m.Job(r.PathValue("id"))
	if !ok {
		obs.WriteError(w, http.StatusNotFound, "unknown sweep job", rid)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		obs.WriteError(w, http.StatusInternalServerError, "streaming unsupported", rid)
		return
	}
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		// EventSource polyfills and curl-based clients can't always set the
		// header; accept the query form too.
		lastID = r.URL.Query().Get("last_event_id")
	}
	seq := resumeSeq(job, lastID)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	w.WriteHeader(http.StatusOK)
	// An immediate comment frame carries the epoch and commits the headers
	// so the client knows the stream is live before the first result.
	fmt.Fprintf(w, ": epoch %s\n\n", job.Epoch)
	flusher.Flush()

	heartbeat := time.NewTicker(heartbeatEvery)
	defer heartbeat.Stop()
	for {
		evs, change, done := job.eventsAfter(seq)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return // cannot happen for Event; bail rather than corrupt the stream
			}
			fmt.Fprintf(w, "id: %s-%d\nevent: result\ndata: %s\n\n", job.Epoch, ev.Seq, data)
			seq = ev.Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if done {
			_, _, doneN, failed, cancelled := job.CountsWithCancelled()
			if job.Cancelled() {
				fmt.Fprintf(w, "event: cancelled\ndata: {\"done\":%d,\"failed\":%d,\"cancelled\":%d}\n\n",
					doneN, failed, cancelled)
			} else {
				fmt.Fprintf(w, "event: done\ndata: {\"done\":%d,\"failed\":%d}\n\n", doneN, failed)
			}
			flusher.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-change:
			if m.isClosed() {
				// Shutdown: end cleanly; the client's Last-Event-ID resumes
				// against the recovered job after restart.
				return
			}
		}
	}
}
