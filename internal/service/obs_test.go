package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// postRun issues a POST to path with the given X-Request-ID and returns the
// response (caller closes the body).
func postRun(t *testing.T, srv *httptest.Server, path, rid, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// debugTraces scrapes GET /v1/debug/requests.
func debugTraces(t *testing.T, srv *httptest.Server) []obs.TraceSnapshot {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug endpoint status = %d", resp.StatusCode)
	}
	var snaps []obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// findTrace returns the ring snapshot with the given request ID, or nil.
func findTrace(t *testing.T, srv *httptest.Server, rid string) *obs.TraceSnapshot {
	t.Helper()
	for _, snap := range debugTraces(t, srv) {
		if snap.ID == rid {
			s := snap
			return &s
		}
	}
	return nil
}

// TestRequestIDEchoedEverywhere pins the correlation contract: the response
// header, the error body, and the debug ring all carry the same request ID —
// the client's own when it supplied a sane one, a fresh one otherwise.
func TestRequestIDEchoedEverywhere(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A client-supplied ID is echoed in the header and the error body.
	resp := postRun(t, srv, "/v1/run", "client-rid-9", `{"l":`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "client-rid-9" {
		t.Fatalf("X-Request-ID header = %q, want the client's own", got)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != "client-rid-9" {
		t.Fatalf("error body request_id = %q, want client-rid-9", body.RequestID)
	}
	if body.Error == "" {
		t.Fatal("error body has no error message")
	}

	// Without a client ID the server mints one.
	resp2 := postRun(t, srv, "/v1/run", "", `{"l":`)
	defer resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", got)
	}
}

// TestDebugRequestRing exercises GET /v1/debug/requests: newest-first order,
// per-stage spans on a computed request, and a cache-hit note on a replay.
func TestDebugRequestRing(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const body = `{"l":10,"w":8,"seed":5}`
	for _, rid := range []string{"ring-1", "ring-2"} {
		resp := postRun(t, srv, "/v1/run", rid, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d (body %q)", rid, resp.StatusCode, readAll(t, resp))
		}
		resp.Body.Close()
	}

	snaps := debugTraces(t, srv)
	if len(snaps) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(snaps))
	}
	if snaps[0].ID != "ring-2" || snaps[1].ID != "ring-1" {
		t.Fatalf("ring order = %s, %s; want newest first", snaps[0].ID, snaps[1].ID)
	}

	// The computed request carries the pipeline's stage spans.
	first := snaps[1]
	if first.Status != http.StatusOK {
		t.Fatalf("first trace status = %d", first.Status)
	}
	names := make(map[string]bool)
	for _, sp := range first.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"cache-lookup", "queue-wait", "grid-build", "sim", "encode"} {
		if !names[want] {
			t.Errorf("computed request trace lacks %q span (have %v)", want, first.Spans)
		}
	}

	// The replay of the same request is answered from cache and says so.
	second := snaps[0]
	if !hasNote(second.Notes, "cache-hit") {
		t.Fatalf("replayed request notes = %v, want cache-hit", second.Notes)
	}

	// The debug endpoint itself is GET-only.
	resp := postRun(t, srv, "/v1/debug/requests", "", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on debug endpoint = %d, want 405", resp.StatusCode)
	}
}

func hasNote(notes []string, want string) bool {
	for _, n := range notes {
		if n == want {
			return true
		}
	}
	return false
}

// TestTracedRunAttachesAuditedFlightDump arms the flight recorder on a small
// successful run and checks the dump lands in the debug ring: audited clean,
// capture counts reported, and — because the run succeeded — no raw events
// embedded.
func TestTracedRunAttachesAuditedFlightDump(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postRun(t, srv, "/v1/run?trace=1", "rid-flight", `{"l":10,"w":8,"seed":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (body %q)", resp.StatusCode, readAll(t, resp))
	}
	resp.Body.Close()

	snap := findTrace(t, srv, "rid-flight")
	if snap == nil {
		t.Fatal("traced request not in the debug ring")
	}
	if !hasNote(snap.Notes, "flight-armed") {
		t.Fatalf("notes = %v, want flight-armed", snap.Notes)
	}
	fl := snap.Flight
	if fl == nil {
		t.Fatal("no flight dump attached")
	}
	if fl.Captured == 0 {
		t.Fatal("flight recorder captured no events")
	}
	if !fl.AuditOK {
		t.Fatalf("flight audit failed on a clean run: %s", fl.AuditError)
	}
	if len(fl.Events) != 0 {
		t.Fatal("successful run embedded raw events; they are reserved for failures")
	}

	// The same request without ?trace=1 shares the cache key: it replays the
	// cached result instead of recomputing, and carries no dump of its own.
	resp2 := postRun(t, srv, "/v1/run", "rid-plain", `{"l":10,"w":8,"seed":5}`)
	resp2.Body.Close()
	if got := s.Metrics.SimRuns.Value(); got != 1 {
		t.Fatalf("sim runs = %d; the untraced replay should hit the cache", got)
	}
	if plain := findTrace(t, srv, "rid-plain"); plain == nil || plain.Flight != nil {
		t.Fatal("cache replay should carry no flight dump")
	}
}

// pauseAtSend forwards every event to the armed recorder and, at the
// k-th send, signals paused and blocks until resume is closed.
type pauseAtSend struct {
	core.Tracer
	k              int
	paused, resume chan struct{}
}

func (p *pauseAtSend) Send(from, to int, at, arrival sim.Time) {
	p.Tracer.Send(from, to, at, arrival)
	if p.k--; p.k == 0 {
		close(p.paused)
		<-p.resume
	}
}

// TestCancelledTracedRunDumpsReplayableFlight is the end-to-end acceptance
// path: a deadline kills a traced run mid-flight, the client gets 504 with
// its request ID, and the debug ring ends up with a flight dump whose
// embedded event tail re-audits cleanly offline — the post-mortem workflow.
//
// "Mid-flight" is made deterministic from inside the run: the armed
// tracer pauses the simulation at its 1000th send until the client has
// read its 504. By then the request's last waiter has left and cancelled
// the flight, so the engine stops at its next context poll with a partial
// run, whatever the machine's speed. Only the pre-sim stage must beat the
// deadline; the grid is built beforehand so that stage is microseconds.
func TestCancelledTracedRunDumpsReplayableFlight(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const l, w = 60, 20
	if _, err := buildGrid(l, w, false); err != nil {
		t.Fatal(err)
	}
	pause := &pauseAtSend{k: 1000, paused: make(chan struct{}), resume: make(chan struct{})}
	orig := flightTracer
	flightTracer = func(fr *obs.FlightRecorder) core.Tracer {
		pause.Tracer = orig(fr)
		return pause
	}
	defer func() { flightTracer = orig }()
	var once sync.Once
	resume := func() { once.Do(func() { close(pause.resume) }) }
	defer resume()

	const rid = "rid-504"
	resp := postRun(t, srv, "/v1/run?trace=1", rid,
		fmt.Sprintf(`{"l":%d,"w":%d,"seed":31,"timeout_ms":250}`, l, w))
	select {
	case <-pause.paused:
	default:
		t.Fatal("the deadline expired before the simulation reached its 1000th send")
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %q)", resp.StatusCode, readAll(t, resp))
	}
	var body struct {
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.RequestID != rid {
		t.Fatalf("504 body request_id = %q, want %q", body.RequestID, rid)
	}
	resume()

	// The computation winds down after the 504; the ring snapshots live
	// traces, so poll until the dump appears.
	var snap *obs.TraceSnapshot
	waitFor(t, func() bool {
		snap = findTrace(t, srv, rid)
		return snap != nil && snap.Flight != nil
	})
	fl := snap.Flight
	if fl.Captured < 1000 {
		t.Fatalf("cancelled run captured %d events, want at least the 1000 sends before the pause", fl.Captured)
	}
	if !fl.AuditOK {
		t.Fatalf("flight audit rejected the cancelled run's tail: %s", fl.AuditError)
	}
	if len(fl.Events) == 0 {
		t.Fatal("failed run did not embed its event tail")
	}

	// Offline replay: reconstruct the event stream from the JSON dump and
	// re-audit it against the run's topology, as a post-mortem tool would.
	evs, err := fl.TraceEvents()
	if err != nil {
		t.Fatal(err)
	}
	h := grid.MustHex(l, w)
	aud := &trace.Auditor{G: h.Graph, Plan: fault.NewPlan(h.NumNodes()), Params: core.DefaultParams()}
	if err := aud.AuditTail(&trace.Recorder{Events: evs}); err != nil {
		t.Fatalf("offline replay of the flight dump failed the audit: %v", err)
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestShedLoadLogCarriesRequestID jams the worker and the queue, then checks
// a shed request gets 429 with its request ID in the body and that the
// structured Warn log line carries the same ID — the operator-side half of
// the correlation contract.
func TestShedLoadLogCarriesRequestID(t *testing.T) {
	var logs syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	s := newTestService(t, Options{Workers: 1, QueueDepth: 1, Logger: logger})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	for i, key := range []string{"jam-worker", "jam-queue"} {
		i, key := i, key
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.result(context.Background(), time.Minute, key, func(context.Context) (*coalesce.Value, error) {
				if i == 0 {
					close(started)
				}
				<-release
				return &coalesce.Value{Body: []byte("x"), ContentType: "text/plain"}, nil
			})
		}()
		if i == 0 {
			<-started // the worker is busy before the queue job is submitted
		}
	}
	waitFor(t, func() bool { return s.queued() == 1 })

	resp := postRun(t, srv, "/v1/run", "rid-429", `{"l":10,"w":8,"seed":99}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var body struct {
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != "rid-429" {
		t.Fatalf("429 body request_id = %q", body.RequestID)
	}
	if got := s.Metrics.QueueRejects.Value(); got != 1 {
		t.Fatalf("queue rejects = %d, want 1", got)
	}
	close(release)
	wg.Wait()

	// The rejection logged one structured Warn line with the same ID.
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var entry map[string]any
		if json.Unmarshal([]byte(line), &entry) != nil {
			continue
		}
		if entry["msg"] == "request failed" && entry["request_id"] == "rid-429" {
			if lvl, _ := entry["level"].(string); lvl != "WARN" {
				t.Fatalf("rejection logged at %v, want WARN", entry["level"])
			}
			if status, _ := entry["status"].(float64); int(status) != http.StatusTooManyRequests {
				t.Fatalf("logged status = %v, want 429", entry["status"])
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no request-failed log line for rid-429 in:\n%s", logs.String())
	}
}
