package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/store"
)

// TestEnvelopeGolden pins the request envelope of both hexd roles: a
// backend with a store and a jobs manager, and a router over it with its
// own manager, each wired onto one mux as cmd/hexd wires them. For every
// request a client can be refused at the door, plus one served run, it
// records the status, Content-Type, X-Request-ID, Retry-After and body in
// testdata/envelope.txt. A client X-Request-ID with a space is replaced
// by a random ID, which is masked. An intended change reruns the test
// with -update and names every changed line in the changelog.
func TestEnvelopeGolden(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{Workers: 1, Store: st, Logger: quietLogger()})
	t.Cleanup(svc.Close)
	backend := hexdMux(t, svc.Handler(), jobs.Options{
		Runner: svc, Service: svc.Options(), Store: st, Trace: svc.Ring(), Metrics: svc.Metrics.Registry,
	})
	bsrv := httptest.NewServer(backend)
	t.Cleanup(bsrv.Close)
	rt, err := New(Options{Peers: []string{bsrv.URL}, HealthInterval: time.Hour, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router := hexdMux(t, rt.Handler(), jobs.Options{Runner: rt, Trace: rt.Ring(), Metrics: rt.Metrics.Registry})

	oversize := `{"l":10,"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	cases := []struct{ name, method, path, body, rid string }{
		{"run-ok", "POST", "/v1/run", `{"l":10,"w":6,"seed":9}`, "env-1"},
		{"run-unknown-field", "POST", "/v1/run", `{"l":10,"w":6,"bogus":1}`, "env-2"},
		{"run-negative-l", "POST", "/v1/run", `{"l":-1}`, "env-3"},
		{"run-oversize", "POST", "/v1/run", oversize, "env-4"},
		{"spec-unknown-field", "POST", "/v1/spec", `{"l":10,"w":6,"bogus":1}`, "env-5"},
		{"spec-negative-l", "POST", "/v1/spec", `{"l":-1}`, "env-6"},
		{"spec-oversize", "POST", "/v1/spec", oversize, "env-7"},
		{"run-get", "GET", "/v1/run", "", "env-8"},
		{"debug-post", "POST", "/v1/debug/requests", "", "env-9"},
		{"run-unsafe-request-id", "POST", "/v1/run", `{"l":-1}`, "bad id"},
		{"sweep-unknown-field", "POST", "/v1/sweeps", `{"bogus":1}`, "env-10"},
		{"sweep-unknown-id", "GET", "/v1/sweeps/nope", "", "env-11"},
	}
	randomID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	var b strings.Builder
	for _, role := range []struct {
		name string
		h    http.Handler
	}{{"backend", backend}, {"router", router}} {
		for _, c := range cases {
			req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
			req.Header.Set("X-Request-ID", c.rid)
			rec := httptest.NewRecorder()
			role.h.ServeHTTP(rec, req)
			res := rec.Result()
			rid, body := res.Header.Get("X-Request-ID"), rec.Body.String()
			if rid != c.rid {
				if !randomID.MatchString(rid) {
					t.Errorf("%s %s: X-Request-ID %q replaces %q, want 16 hex chars", role.name, c.name, rid, c.rid)
				}
				body = strings.ReplaceAll(body, rid, "<masked>")
				rid = "<masked>"
			}
			fmt.Fprintf(&b, "%s %s: %d content-type=%q x-request-id=%q retry-after=%q\n\tbody %q\n",
				role.name, c.name, res.StatusCode, res.Header.Get("Content-Type"), rid,
				res.Header.Get("Retry-After"), body)
		}
	}
	checkGolden(t, "testdata/envelope.txt", b.String())
}

// hexdMux mounts h and a jobs manager's sweep endpoints on one mux, as
// cmd/hexd does for either role.
func hexdMux(t *testing.T, h http.Handler, jopts jobs.Options) *http.ServeMux {
	jopts.Logger = quietLogger()
	mgr := jobs.NewManager(jopts)
	t.Cleanup(mgr.Close)
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mgr.Register(mux)
	return mux
}
