package main

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs/export"
	"repro/internal/service"
)

// routerConfig carries the flag values that apply in -router mode.
type routerConfig struct {
	addr           string
	peers          string
	healthInterval time.Duration
	traceRing      int
	drain          time.Duration
	sweepUnits     int
	sweepInflight  int
	exporter       *export.Exporter
	limits         service.Options
}

// runRouter is main's -router branch: the same serve/drain lifecycle as
// a backend node, wrapped around a cluster.Router instead of a local
// service.
func runRouter(logger *slog.Logger, cfg routerConfig) {
	var peerList []string
	for _, p := range strings.Split(cfg.peers, ",") {
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
		Service:        cfg.limits,
		HealthInterval: cfg.healthInterval,
		TraceRing:      cfg.traceRing,
		Logger:         logger,
		Exporter:       cfg.exporter,
	})
	if err != nil {
		logger.Error("router init failed", "err", err.Error())
		os.Exit(2)
	}
	// A router hosts sweep jobs too: rt.RunUnits forwards each batch's
	// units to their canonical keys' owning shards, and a unit shed for
	// capacity (ErrBusy, a shard's 429) matches service.ErrQueueFull, so
	// the manager retries it as it would on a backend. Specs are not
	// durable here (the router is stateless by design) — shard-side
	// stores still dedupe a re-submitted sweep down to store hits.
	mgr := jobs.NewManager(jobs.Options{
		Runner:      rt,
		Service:     cfg.limits,
		MaxUnits:    cfg.sweepUnits,
		MaxInFlight: cfg.sweepInflight,
		Logger:      logger,
		Trace:       rt.Ring(),
		Exporter:    cfg.exporter,
		Metrics:     rt.Metrics.Registry,
	})
	cfg.exporter.RegisterMetrics(rt.Metrics.Registry)

	mux := http.NewServeMux()
	mux.Handle("/", rt.Handler())
	mgr.Register(mux)
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("router listening", "addr", cfg.addr, "peers", peerList)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("router draining", "window", cfg.drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown error", "err", err.Error())
	}
	mgr.Close()
	rt.Close()
	if err := cfg.exporter.Close(shutdownCtx); err != nil {
		logger.Warn("otlp drain incomplete", "err", err.Error(), "dropped", cfg.exporter.Dropped())
	}
	logger.Info("router drained, bye")
}
