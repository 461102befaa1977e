// Command hexd serves HEX simulations over HTTP: a bounded worker pool
// with admission control, a deterministic result cache with in-flight
// deduplication, per-request deadlines, and graceful drain on SIGTERM.
//
// With -store-dir, results are also persisted to a disk-backed,
// checksummed store that survives restarts (see DESIGN.md §10).
//
// With -router, hexd is instead a fleet router: it executes nothing
// locally and rendezvous-hashes canonical request keys across the
// -peers backends, with health checks, deterministic re-homing on node
// loss, and fleet-wide request coalescing (see DESIGN.md §13). The two
// roles differ only in what executes a request; the sweep-jobs manager,
// the HTTP mux (with -pprof) and the serve/drain lifecycle are shared.
//
// Usage:
//
//	hexd -addr :8080 -workers 8 -queue 32 -cache 512 -timeout 30s \
//	     -store-dir /var/lib/hexd -store-max-bytes 268435456
//
//	hexd -router -addr :8080 \
//	     -peers http://n1:8081,http://n2:8081,http://n3:8081
//
// Endpoints:
//
//	POST /v1/run            {"l":50,"w":20,"scenario":"iii","faults":2,"seed":7}
//	                        (?trace=1 arms the sim flight recorder)
//	POST /v1/spec           {"l":50,"w":20,"scenario":"ramp","runs":250}
//	POST /v1/sweeps         {"scenarios":["iii","ramp"],"faults":[0,2],"seed_count":20}
//	GET  /v1/sweeps/{id}            (job status)
//	GET  /v1/sweeps/{id}/events     (SSE result stream; Last-Event-ID resumes)
//	GET  /v1/debug/requests (recent request traces, newest first)
//	GET  /healthz
//	GET  /metrics
//
// Logs are structured JSON on stderr (log/slog); every request line and
// every error response body carries the request's X-Request-ID.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/service"
	"repro/internal/store"
)

// executor is what serves one role's requests: a backend's store-backed
// *service.Service or a router's *cluster.Router.
type executor interface {
	jobs.Runner
	Handler() http.Handler
	Ring() *obs.Ring
	Close()
}

// backendOnly and routerOnly name the flags only one role reads.
var (
	backendOnly = []string{"store-dir", "store-max-bytes", "workers", "queue", "cache",
		"flight-events", "arm-on", "arm-skew-margin-pct", "arm-slow-pct"}
	routerOnly = []string{"peers", "health-interval"}
)

// ignoredFlags lists, by name, the flags set on the command line that the
// chosen role would ignore.
func ignoredFlags(router bool) []string {
	other := routerOnly
	if router {
		other = backendOnly
	}
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(other, f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	return ignored
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "job queue depth (0 = 4x workers)")
		cacheSize    = flag.Int("cache", 512, "result cache entries (negative disables)")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "clamp for per-request deadlines")
		maxNodes     = flag.Int("max-nodes", 250000, "largest admissible grid, in nodes")
		maxRuns      = flag.Int("max-runs", 2000, "largest admissible runs count per /v1/spec")
		drainwindow  = flag.Duration("drain", 30*time.Second, "graceful shutdown window")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; the endpoints expose heap and CPU internals)")
		storeDir     = flag.String("store-dir", "", "durable result store directory (empty disables; survives restarts)")
		storeMax     = flag.Int64("store-max-bytes", 256<<20, "on-disk byte budget for -store-dir (<= 0 = unlimited)")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug|info|warn|error (debug logs every request)")
		debugRing    = flag.Int("debug-requests", 64, "completed request traces kept for GET /v1/debug/requests (negative disables)")
		flightEvents = flag.Int("flight-events", 4096, "sim events retained by the ?trace=1 flight recorder (negative disables)")
		sweepUnits   = flag.Int("sweep-max-units", 10000, "largest admissible unit count for one POST /v1/sweeps job")
		sweepFlight  = flag.Int("sweep-inflight", 0, "sweep batches dispatched concurrently into the worker pool or fleet (0 = 2x GOMAXPROCS)")

		otlpEndpoint = flag.String("otlp-endpoint", "", "OTLP/HTTP collector base URL for span export (e.g. http://localhost:4318; empty disables)")
		otlpQueue    = flag.Int("otlp-queue", 1024, "bounded span-export queue depth; a full queue drops spans rather than blocking the sim path")
		armOn        = flag.String("arm-on", "", "comma-separated flight-recorder arm predicates: skew|error|audit|slow (empty disables; see DESIGN.md §16)")
		armSkewPct   = flag.Float64("arm-skew-margin-pct", 0, "arm-on=skew: percent slack over the Theorem-1 envelope before arming")
		armSlowPct   = flag.Float64("arm-slow-pct", 99, "arm-on=slow: wall-time percentile a run must exceed to arm")

		routerOn       = flag.Bool("router", false, "run as a fleet router: forward to -peers instead of executing locally")
		peers          = flag.String("peers", "", "comma-separated backend base URLs for -router (e.g. http://n1:8081,http://n2:8081)")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "router: period of the backend /healthz probe loop")
	)
	flag.Parse()
	if ignored := ignoredFlags(*routerOn); len(ignored) > 0 {
		role := "a backend (no -router)"
		if *routerOn {
			role = "-router"
		}
		fmt.Fprintf(os.Stderr, "hexd: %s does not use %s\n", role, strings.Join(ignored, ", "))
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "hexd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	armPolicy, err := parseArmPolicy(*armOn, *armSkewPct, *armSlowPct)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hexd: %v\n", err)
		os.Exit(2)
	}
	// nil when -otlp-endpoint is empty; every call site is nil-safe, so
	// the exporter is always compiled in but costs nothing when off.
	exporter := export.New(export.Options{Endpoint: *otlpEndpoint, QueueSize: *otlpQueue})
	if exporter.Enabled() {
		logger.Info("otlp export enabled", "endpoint", *otlpEndpoint, "queue", *otlpQueue)
	}

	limits := service.Options{
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxNodes:       *maxNodes,
		MaxRuns:        *maxRuns,
	}
	var (
		exec   executor
		reg    *metrics.Registry
		st     *store.Store
		role   string // lifecycle log prefix
		listen []any  // the role's "listening" attributes
	)
	if *routerOn {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if len(peerList) == 0 {
			logger.Error("-router requires -peers (comma-separated backend base URLs)")
			os.Exit(2)
		}
		rt, err := cluster.New(cluster.Options{
			Peers:          peerList,
			Service:        limits,
			HealthInterval: *healthInterval,
			TraceRing:      *debugRing,
			Logger:         logger,
			Exporter:       exporter,
		})
		if err != nil {
			logger.Error("router init failed", "err", err.Error())
			os.Exit(2)
		}
		exec, reg, role, listen = rt, rt.Metrics.Registry, "router ", []any{"peers", peerList}
	} else {
		if *storeDir != "" {
			var err error
			if st, err = store.Open(*storeDir, *storeMax); err != nil {
				logger.Error("open store failed", "dir", *storeDir, "err", err.Error())
				os.Exit(1)
			}
			logger.Info("store recovered", "dir", *storeDir,
				"records", st.Len(), "bytes", st.Bytes(), "quarantined", st.Quarantined())
		}
		opts := limits
		opts.Workers = *workers
		opts.QueueDepth = *queue
		opts.CacheEntries = *cacheSize
		opts.Store = st
		opts.Logger = logger
		opts.TraceRing = *debugRing
		opts.FlightEvents = *flightEvents
		opts.Exporter = exporter
		opts.Arm = obs.NewArmer(armPolicy)
		svc := service.New(opts)
		opts = svc.Options()
		exec, reg = svc, svc.Metrics.Registry
		listen = []any{"workers", opts.Workers, "queue", opts.QueueDepth, "cache", opts.CacheEntries}
	}

	// Sweep jobs share the role's trace ring, metrics registry and
	// admission limits, and run their units through exec.RunUnits: on a
	// backend the same pipeline as interactive /v1/run traffic, on a router
	// a forward of each unit to its key's owning shard, where a unit shed
	// for capacity (ErrBusy, a shard's 429) matches service.ErrQueueFull
	// and is retried. A router keeps no specs (it is stateless by design);
	// shard-side stores still dedupe a re-submitted sweep to store hits.
	mgr := jobs.NewManager(jobs.Options{
		Runner:      exec,
		Service:     limits,
		Store:       st,
		MaxUnits:    *sweepUnits,
		MaxInFlight: *sweepFlight,
		Logger:      logger,
		Trace:       exec.Ring(),
		Exporter:    exporter,
		Metrics:     reg,
	})
	exporter.RegisterMetrics(reg)
	if n, err := mgr.Recover(); err != nil {
		logger.Error("sweep job recovery failed", "err", err.Error())
		os.Exit(1)
	} else if n > 0 {
		logger.Info("sweep jobs resumed", "jobs", n)
	}

	mux := http.NewServeMux()
	mux.Handle("/", exec.Handler())
	mgr.Register(mux)
	if *pprofOn {
		// On the API mux rather than http.DefaultServeMux, so the profile
		// endpoints exist only when asked for.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("serve failed", "err", err.Error())
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	logger.Info(role+"listening", append([]any{"addr", lis.Addr().String()}, listen...)...)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, let in-flight requests (and the
	// jobs they wait on) finish within the window, then stop the executor.
	logger.Info(role+"draining", "window", drainwindow.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainwindow)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown error", "err", err.Error())
	}
	mgr.Close()
	exec.Close()
	// Flush queued spans before exit so the last requests of a drain are
	// visible in the collector; bounded by whatever drain window remains.
	if err := exporter.Close(shutdownCtx); err != nil {
		logger.Warn("otlp drain incomplete", "err", err.Error(), "dropped", exporter.Dropped())
	}
	logger.Info(role + "drained, bye")
}
