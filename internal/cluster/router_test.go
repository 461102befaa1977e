package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// node is one in-process fleet backend: a service.Service behind a real
// TCP listener so it can be killed (connection-refused, like a crashed
// machine) and later restarted on the same address with the same store
// directory.
type node struct {
	t    *testing.T
	dir  string // store directory; "" disables the durable tier
	addr string // host:port, fixed across restarts
	opts service.Options

	svc *service.Service
	srv *http.Server
}

// startNode boots a backend. addr "" picks a fresh port.
func startNode(t *testing.T, dir, addr string, opts service.Options) *node {
	t.Helper()
	n := &node{t: t, dir: dir, addr: addr, opts: opts}
	n.start()
	t.Cleanup(func() { n.kill() })
	return n
}

func (n *node) start() {
	n.t.Helper()
	opts := n.opts
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	if n.dir != "" {
		st, err := store.Open(n.dir, 0)
		if err != nil {
			n.t.Fatal(err)
		}
		opts.Store = st
	}
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		n.t.Fatal(err)
	}
	n.addr = lis.Addr().String()
	n.svc = service.New(opts)
	n.srv = &http.Server{Handler: n.svc.Handler()}
	go n.srv.Serve(lis)
}

func (n *node) url() string { return "http://" + n.addr }

// kill closes the listener and all connections (a crash, as seen from
// the router), then drains the service. Idempotent.
func (n *node) kill() {
	if n.srv == nil {
		return
	}
	n.srv.Close()
	n.srv = nil
	n.svc.Close()
}

// restart recovers the node on its original address and store directory.
func (n *node) restart() {
	n.t.Helper()
	if n.srv != nil {
		n.t.Fatal("restart of a live node")
	}
	n.start()
}

// startFleet boots count backends (each with its own store dir when
// withStores) and a router over them with test-fast health settings.
func startFleet(t *testing.T, count int, withStores bool, ropts Options) (*Router, *httptest.Server, []*node) {
	t.Helper()
	nodes := make([]*node, count)
	peers := make([]string, count)
	for i := range nodes {
		dir := ""
		if withStores {
			dir = t.TempDir()
		}
		nodes[i] = startNode(t, dir, "", service.Options{})
		peers[i] = nodes[i].url()
	}
	ropts.Peers = peers
	if ropts.HealthInterval == 0 {
		ropts.HealthInterval = 50 * time.Millisecond
	}
	if ropts.HealthTimeout == 0 {
		ropts.HealthTimeout = 500 * time.Millisecond
	}
	if ropts.FailThreshold == 0 {
		ropts.FailThreshold = 1
	}
	if ropts.Backoff == 0 {
		ropts.Backoff = 10 * time.Millisecond
	}
	if ropts.Logger == nil {
		ropts.Logger = quietLogger()
	}
	rt, err := New(ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	return rt, rsrv, nodes
}

func postRun(t *testing.T, client *http.Client, base, body string) (*http.Response, string) {
	t.Helper()
	resp, err := client.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// runKey derives the canonical key of a request body the same way both
// router and backends do.
func runKey(t *testing.T, body string) string {
	t.Helper()
	var rr service.RunRequest
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if err := rr.Normalize(service.Options{}.Resolved()); err != nil {
		t.Fatal(err)
	}
	return rr.CanonicalKey()
}

func totalSimRuns(nodes []*node) uint64 {
	var n uint64
	for _, nd := range nodes {
		n += nd.svc.Metrics.SimRuns.Value()
	}
	return n
}

// TestClusterSmokeSingleExecutionFleetWide is the cluster smoke test: N
// identical concurrent requests sprayed at a 3-node fleet's router
// execute exactly one simulation fleet-wide — the router coalesces
// concurrent duplicates, the owning shard coalesces and caches the rest
// — and the fleet drains cleanly afterwards (the registered Cleanups
// deadlocking would fail the test by timeout).
func TestClusterSmokeSingleExecutionFleetWide(t *testing.T) {
	rt, rsrv, nodes := startFleet(t, 3, false, Options{})
	const body = `{"l":120,"w":30,"scenario":"udplus","seed":11}`
	const n = 24

	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, b := postRun(t, rsrv.Client(), rsrv.URL, body)
			codes[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d: body diverges", i)
		}
	}
	if got := totalSimRuns(nodes); got != 1 {
		t.Fatalf("fleet executed %d simulations for %d identical requests, want exactly 1", got, n)
	}
	// Only the key's rendezvous owner may have seen traffic.
	owner := Rank(runKey(t, body), rt.Peers())[0]
	for i, nd := range nodes {
		got := nd.svc.Metrics.Requests["run"].Value()
		if i == owner && got == 0 {
			t.Errorf("owner %d saw no requests", i)
		}
		if i != owner && got != 0 {
			t.Errorf("non-owner %d saw %d requests", i, got)
		}
	}
}

// TestClusterShardsByCanonicalKey sends K distinct requests and checks
// placement is exactly the rendezvous ranking: every request lands on
// its key's owner, each executes once fleet-wide, and repeats are
// answered by the owner's cache without new simulations.
func TestClusterShardsByCanonicalKey(t *testing.T) {
	rt, rsrv, nodes := startFleet(t, 3, false, Options{})
	const k = 9
	owned := make([]uint64, 3)
	for i := 0; i < k; i++ {
		body := fmt.Sprintf(`{"l":30,"w":10,"seed":%d}`, i+1)
		resp, b := postRun(t, rsrv.Client(), rsrv.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", i+1, resp.StatusCode, b)
		}
		owned[Rank(runKey(t, body), rt.Peers())[0]]++
	}
	if got := totalSimRuns(nodes); got != k {
		t.Fatalf("fleet executed %d simulations for %d distinct requests, want %d", got, k, k)
	}
	for i, nd := range nodes {
		if got := nd.svc.Metrics.Requests["run"].Value(); got != owned[i] {
			t.Errorf("node %d served %d requests, rendezvous owns %d", i, got, owned[i])
		}
	}
	// Repeats: same requests again — zero new simulations anywhere.
	for i := 0; i < k; i++ {
		body := fmt.Sprintf(`{"l":30,"w":10,"seed":%d}`, i+1)
		if resp, b := postRun(t, rsrv.Client(), rsrv.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat seed %d: status %d (%s)", i+1, resp.StatusCode, b)
		}
	}
	if got := totalSimRuns(nodes); got != k {
		t.Fatalf("repeats executed %d extra simulations, want 0", totalSimRuns(nodes)-k)
	}
}

// corruptStoreDir flips one bit in the first record of every segment
// file under dir and returns how many files it damaged — the
// internal/store fault-injection technique applied to a dead shard's
// directory. The write-behind writer commits results that finish close
// together as one segment; a segment whose first record is bad is
// quarantined whole.
func corruptStoreDir(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".seg") {
			continue
		}
		path := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 8 {
			continue
		}
		// A record is a 12-byte header (magic, payload length, CRC32C)
		// followed by its payload.
		first := min(len(data), 12+int(binary.LittleEndian.Uint32(data[4:8])))
		data[first/2] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// waitHealthz polls the router's /healthz until it reports wantStatus.
func waitHealthz(t *testing.T, client *http.Client, base, wantStatus string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			var hz healthzResponse
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err == nil && hz.Status == wantStatus {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("router never reported %q", wantStatus)
}

// TestClusterNodeKillRehomeAndCorruptStoreRecovery is the acceptance
// test of the fleet: kill a node mid-load and its keys re-home to the
// rendezvous fallback with every response still byte-identical; then
// corrupt the dead node's store directory (the internal/store
// fault-injection harness' bit-flip applied per record), restart it, and
// prove the quarantine recomputes rather than ever serving corrupt
// bytes.
func TestClusterNodeKillRehomeAndCorruptStoreRecovery(t *testing.T) {
	rt, rsrv, nodes := startFleet(t, 3, true, Options{})
	peers := rt.Peers()

	// Phase 1: warm the fleet with K distinct requests; remember every
	// canonical body and each key's owner.
	const k = 9
	reqBodies := make([]string, k)
	want := make([]string, k)
	owners := make([]int, k)
	for i := 0; i < k; i++ {
		reqBodies[i] = fmt.Sprintf(`{"l":30,"w":10,"scenario":"ramp","seed":%d}`, i+1)
		resp, b := postRun(t, rsrv.Client(), rsrv.URL, reqBodies[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm seed %d: status %d (%s)", i+1, resp.StatusCode, b)
		}
		want[i] = b
		owners[i] = Rank(runKey(t, reqBodies[i]), peers)[0]
	}

	// Pick the victim: the node owning the most keys, so re-homing is
	// well exercised.
	victim := 0
	counts := make([]int, 3)
	for _, o := range owners {
		counts[o]++
	}
	for i, c := range counts {
		if c > counts[victim] {
			victim = i
		}
	}
	if counts[victim] == 0 {
		t.Fatal("no keys to re-home; enlarge k")
	}
	victimSims := nodes[victim].svc.Metrics.SimRuns.Value()

	// Phase 2: kill the victim and spray the full workload concurrently
	// while the router discovers the loss. Every response must succeed
	// and match phase 1 byte-for-byte — surviving shards answer from
	// their caches, the victim's keys re-execute on their rendezvous
	// fallback (determinism makes the recompute byte-identical).
	nodes[victim].kill()
	var wg sync.WaitGroup
	errs := make(chan string, 2*k)
	for round := 0; round < 2; round++ {
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, b := postRun(t, rsrv.Client(), rsrv.URL, reqBodies[i])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("seed %d: status %d (%s)", i+1, resp.StatusCode, b)
					return
				}
				if b != want[i] {
					errs <- fmt.Sprintf("seed %d: body diverged after node loss", i+1)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}
	if got := rt.Metrics.Rehomes.Value(); got == 0 {
		t.Fatal("no re-homes recorded though the owner of live keys is dead")
	}
	// The victim's keys were re-executed exactly once each on the
	// fallback: fleet-wide sims = k (phase 1) + victim's key count.
	total := totalSimRuns(nodes) // victim's counter still readable post-kill
	if wantTotal := uint64(k + counts[victim]); total != wantTotal {
		t.Fatalf("fleet sims after re-home = %d, want %d (k=%d + %d re-homed)", total, wantTotal, k, counts[victim])
	}
	if nodes[victim].svc.Metrics.SimRuns.Value() != victimSims {
		t.Fatal("dead node executed simulations")
	}
	waitHealthz(t, rsrv.Client(), rsrv.URL, "degraded")

	// Phase 3: mangle every record in the dead node's store directory —
	// the store fault-injection harness' single-bit flip — and restart
	// the node on the same address and directory. Recovery must
	// quarantine every damaged record instead of indexing it.
	flipped := corruptStoreDir(t, nodes[victim].dir)
	if flipped == 0 {
		t.Fatal("victim persisted no records; nothing corrupted")
	}
	nodes[victim].restart()
	st := nodes[victim].svc.Options().Store
	if got := st.Quarantined(); got != uint64(flipped) {
		t.Fatalf("restart quarantined %d records, want %d", got, flipped)
	}
	if got := st.Len(); got != 0 {
		t.Fatalf("restart indexed %d corrupt records, want 0", got)
	}
	waitHealthz(t, rsrv.Client(), rsrv.URL, "ok")

	// Phase 4: the recovered node owns its keys again. Serving them must
	// recompute (quarantine means no disk hit) and the bytes must equal
	// phase 1 exactly — zero corrupt results served, ever.
	for i := 0; i < k; i++ {
		if owners[i] != victim {
			continue
		}
		resp, b := postRun(t, rsrv.Client(), rsrv.URL, reqBodies[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recovered seed %d: status %d (%s)", i+1, resp.StatusCode, b)
		}
		if b != want[i] {
			t.Fatalf("recovered seed %d: body differs from pre-crash result", i+1)
		}
	}
	if got := nodes[victim].svc.Metrics.SimRuns.Value(); got != uint64(counts[victim]) {
		t.Fatalf("recovered node executed %d sims, want %d recomputes", got, counts[victim])
	}
	if got := nodes[victim].svc.Metrics.StoreHits.Value(); got != 0 {
		t.Fatalf("recovered node served %d store hits from a corrupted directory", got)
	}
}

// TestRouterTraceCorrelation pins the fleet-wide observability contract:
// one request through the router yields traces with the same request id
// and the same W3C trace-id in /v1/debug/requests on the router AND on
// the backend that served it.
func TestRouterTraceCorrelation(t *testing.T) {
	_, rsrv, nodes := startFleet(t, 3, false, Options{})
	const rid = "fleet-rid-0001"
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"

	req, err := http.NewRequest(http.MethodPost, rsrv.URL+"/v1/run",
		strings.NewReader(`{"l":20,"w":8,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := rsrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("router echoed request id %q, want %q", got, rid)
	}

	type snap struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	fetch := func(base string) []snap {
		t.Helper()
		r, err := http.Get(base + "/v1/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var snaps []snap
		if err := json.NewDecoder(r.Body).Decode(&snaps); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	find := func(snaps []snap) *snap {
		for i := range snaps {
			if snaps[i].ID == rid {
				return &snaps[i]
			}
		}
		return nil
	}
	rs := find(fetch(rsrv.URL))
	if rs == nil {
		t.Fatal("router ring holds no trace for the request id")
	}
	if rs.TraceID != tid {
		t.Fatalf("router trace_id = %q, want %q", rs.TraceID, tid)
	}
	matches := 0
	for _, nd := range nodes {
		if bs := find(fetch(nd.url())); bs != nil {
			if bs.TraceID != tid {
				t.Fatalf("backend %s trace_id = %q, want %q", nd.url(), bs.TraceID, tid)
			}
			matches++
		}
	}
	if matches != 1 {
		t.Fatalf("request id found on %d backends, want exactly 1 (the owner)", matches)
	}
}

// TestRouterHealthzDegradedAndUnavailable pins the honest /healthz:
// all peers up → ok; some down → degraded (with per-peer detail, still
// HTTP 200 because the fleet still serves); all down → 503.
func TestRouterHealthzDegradedAndUnavailable(t *testing.T) {
	rt, rsrv, nodes := startFleet(t, 3, false, Options{})
	waitHealthz(t, rsrv.Client(), rsrv.URL, "ok")

	nodes[1].kill()
	waitHealthz(t, rsrv.Client(), rsrv.URL, "degraded")
	resp, err := rsrv.Client().Get(rsrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status = %d, want 200 with JSON detail", resp.StatusCode)
	}
	down := 0
	for _, p := range hz.Peers {
		if !p.Up {
			down++
			if p.URL != nodes[1].url() {
				t.Fatalf("down peer = %s, want %s", p.URL, nodes[1].url())
			}
		}
	}
	if down != 1 {
		t.Fatalf("healthz reports %d down peers, want 1", down)
	}
	// hexd_cluster_peer_up reads the same peer set at scrape time.
	var page strings.Builder
	rt.Metrics.WriteText(&page)
	for i, want := range []int{1, 0, 1} {
		if line := fmt.Sprintf("hexd_cluster_peer_up{peer=%q} %d\n", nodes[i].url(), want); !strings.Contains(page.String(), line) {
			t.Errorf("metrics page lacks %q", line)
		}
	}

	nodes[0].kill()
	nodes[2].kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := rsrv.Client().Get(rsrv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz = %d with every peer dead, want 503", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterPassesBackendVerdictsThrough: a backend's deliberate non-2xx
// (here a 400 from a stricter shard) reaches the client with its status
// and body, not converted into a router-side retry or 502.
func TestRouterPassesBackendVerdictsThrough(t *testing.T) {
	// Backends admit only tiny grids; the router's own limits are the
	// defaults, so the request passes the router and is refused by the
	// shard.
	nodes := make([]*node, 2)
	peers := make([]string, 2)
	for i := range nodes {
		nodes[i] = startNode(t, "", "", service.Options{MaxNodes: 100})
		peers[i] = nodes[i].url()
	}
	rt, err := New(Options{
		Peers:          peers,
		HealthInterval: 50 * time.Millisecond,
		Backoff:        10 * time.Millisecond,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)

	resp, b := postRun(t, rsrv.Client(), rsrv.URL, `{"l":50,"w":20,"seed":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%s), want the backend's 400 passed through", resp.StatusCode, b)
	}
	if !strings.Contains(b, "exceeds the limit") {
		t.Fatalf("body %q lacks the backend's error detail", b)
	}
	// Router-side validation still rejects malformed requests itself.
	resp, b = postRun(t, rsrv.Client(), rsrv.URL, `{"bogus":1}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(b, "invalid JSON body") {
		t.Fatalf("router validation: status %d body %q", resp.StatusCode, b)
	}
	if got := rt.Metrics.Requests["run"].Value(); got != 2 {
		t.Fatalf("router counted %d run requests, want 2", got)
	}
}

// TestClusterMetricsText lints the router's Prometheus exposition: every
// family announced with HELP/TYPE, counters suffixed _total, per-peer
// labels present, and the output stable across scrapes.
func TestClusterMetricsText(t *testing.T) {
	rt, rsrv, _ := startFleet(t, 3, false, Options{})
	if _, b := postRun(t, rsrv.Client(), rsrv.URL, `{"l":20,"w":8,"seed":5}`); b == "" {
		t.Fatal("empty run response")
	}
	get := func() string {
		resp, err := rsrv.Client().Get(rsrv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	text := get()
	for _, want := range []string{
		"# TYPE hexd_cluster_requests_total counter",
		`hexd_cluster_requests_total{endpoint="run"} 1`,
		"# TYPE hexd_cluster_forwards_total counter",
		"# TYPE hexd_cluster_rehomes_total counter",
		"# TYPE hexd_cluster_peer_up gauge",
		fmt.Sprintf("hexd_cluster_peer_up{peer=%q} 1", rt.Peers()[0]),
		"# TYPE hexd_cluster_coalesced_total counter",
		"# TYPE hexd_cluster_health_checks_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text lacks %q", want)
		}
	}
	// Family and label order must not drift between scrapes.
	if again := get(); func() bool {
		a, b := strings.Split(text, "\n"), strings.Split(again, "\n")
		if len(a) != len(b) {
			return true
		}
		for i := range a {
			ai, bi := strings.SplitN(a[i], " ", 2)[0], strings.SplitN(b[i], " ", 2)[0]
			if ai != bi {
				return true
			}
		}
		return false
	}() {
		t.Error("metric family/label order drifted between scrapes")
	}
}
