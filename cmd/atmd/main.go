// Command atmd is the per-hypervisor ATM daemon: it exposes
// cgroup-style per-VM resource limits over a web API (the paper's
// Section IV-C actuation path) and, in -serve mode, runs the full
// streaming ATM service — a state store fed by an ingestion API and a
// scheduling engine that re-plans each box as samples stream in.
//
// Usage:
//
//	atmd [-addr :8023] [-pprof] [-grace 10s]
//	     [-serve -train 64 -horizon 32 -spd 32 [-reuse] [-actuate] ...]
//
// API:
//
//	GET    /cgroups        list all VM limits
//	GET    /cgroups/<vm>   read one VM's limits
//	PUT    /cgroups/<vm>   set limits, body {"cpu_ghz": 7.2, "ram_gb": 4}
//	DELETE /cgroups/<vm>   remove a VM's cgroup
//	GET    /metrics        Prometheus text exposition (registry gauges,
//	                       HTTP route histograms, pipeline + engine
//	                       counters)
//	GET    /healthz        liveness JSON {"status":"ok",...}
//	GET    /readyz         readiness: 200 only when every engine shard
//	                       loop is running and the daemon is not
//	                       draining (equals liveness without -serve)
//	GET    /debug/pprof/*  CPU/heap/goroutine profiles (only with -pprof)
//
// With -serve, additionally:
//
//	POST /v1/boxes/<id>/samples  ingest usage ticks, body
//	                             {"box": {...}, "samples": [{"cpu": [...], "ram": [...]}]}
//	                             ("box" meta required on first contact)
//	POST /v1/ingest              batched ingest for many boxes, body
//	                             {"boxes": [{"id": "...", "box": {...}, "samples": [...]}]}
//	                             with per-box error reporting
//	GET  /v1/boxes/<id>/plan     latest resize plan for the box
//	GET  /v1/boxes/<id>/whatif   dry-run actuation plan: per-VM writes,
//	                             policy clamps and rejections the latest
//	                             plan would produce, computed without
//	                             touching the cgroup registry
//	GET  /v1/boxes/<id>/debug    step state, last decision, forecast
//	                             scorecard, events and span tree
//	GET  /v1/events              decision-event tail (?box=, ?n=)
//
// -actuate pushes plans into this daemon's own cgroup registry through
// the transactional apply path; -policy FILE interposes min/max/step
// clamps and write rate limits in front of every write; -dry-run keeps
// the engine plan-only (whatif still answers) no matter what else is
// set.
//
// -events FILE appends every decision event as one JSON line; -spans
// FILE does the same for spans with size-based rotation
// (-spans-max-bytes).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting connections, drains in-flight requests for up to the
// -grace duration, then stops the engine — letting in-flight pipeline
// steps finish — before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"atm/internal/actuator"
	"atm/internal/obs"
	"atm/internal/serve"
)

// newHandler assembles the daemon's route table: the cgroup API under
// HTTP middleware (request counts, latency histograms, in-flight
// gauges per route), the metrics and health endpoints, the streaming
// API when a service is attached (-serve), and — when enabled — the
// pprof profiling handlers. Split from main so tests can drive the
// exact production mux through httptest.
func newHandler(reg *actuator.Registry, svc *serve.Service, pprofEnabled bool, start time.Time) http.Handler {
	mux := http.NewServeMux()
	api := reg.Handler()
	metrics := obs.Default()
	// Two routes, not one per cgroup id: metric label cardinality must
	// stay bounded no matter how many VMs the hypervisor hosts.
	mux.Handle("/cgroups", metrics.InstrumentHandler("/cgroups", api))
	mux.Handle("/cgroups/", metrics.InstrumentHandler("/cgroups/:id", api))
	if svc != nil {
		// One route label for the whole streaming API: box ids are
		// unbounded, metric label cardinality must not be.
		mux.Handle("/v1/boxes/", metrics.InstrumentHandler("/v1/boxes/:id", svc.Handler()))
		mux.Handle("/v1/ingest", metrics.InstrumentHandler("/v1/ingest", svc.IngestHandler()))
		mux.Handle("/v1/events", metrics.InstrumentHandler("/v1/events", svc.EventsHandler()))
	}
	mux.Handle("/metrics", obs.Handler())
	// Liveness and readiness split: /healthz answers 200 while the
	// process lives; /readyz tracks whether traffic should route here
	// (engine loops running, not draining). Without -serve there is no
	// engine to wait for, so readiness equals liveness.
	mux.Handle("/healthz", obs.HealthzHandler(start))
	if svc != nil {
		mux.Handle("/readyz", svc.ReadyzHandler())
	} else {
		mux.Handle("/readyz", obs.HealthzHandler(start))
	}
	if pprofEnabled {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func main() {
	addr := flag.String("addr", ":8023", "listen address")
	pprofEnabled := flag.Bool("pprof", false, "expose /debug/pprof/* profiling handlers")
	grace := flag.Duration("grace", 10*time.Second, "graceful-shutdown drain deadline")
	serveFlag := flag.Bool("serve", false, "run the streaming ATM service (ingestion + planning engine)")
	var sc serveConfig
	flag.IntVar(&sc.train, "train", 64, "serve: training window size in samples")
	flag.IntVar(&sc.horizon, "horizon", 32, "serve: prediction/resizing horizon in samples")
	flag.IntVar(&sc.spd, "spd", 32, "serve: samples per day (seasonal period)")
	flag.Float64Var(&sc.threshold, "threshold", 0.6, "serve: ticket threshold (fraction of capacity)")
	flag.Float64Var(&sc.epsilon, "epsilon", 0.1, "serve: MCKP approximation epsilon")
	flag.BoolVar(&sc.reuse, "reuse", false, "serve: reuse signature sets across windows (refit until drift)")
	flag.BoolVar(&sc.robust, "control", false, "serve: blend plans toward the worst-case-safe allocation under drift-adaptive forecast trust")
	flag.BoolVar(&sc.actuate, "actuate", false, "serve: push plans into this daemon's cgroup registry")
	flag.BoolVar(&sc.dryRun, "dry-run", false, "serve: plan-only — publish plans and answer whatif, never write limits")
	flag.StringVar(&sc.policyFile, "policy", "", "serve: JSON policy file with min/max/step clamps and write rate limits (requires -actuate or -dry-run)")
	flag.IntVar(&sc.workers, "workers", 0, "serve: engine-wide bound on concurrent step computations, across all shards (0 = one per core)")
	flag.IntVar(&sc.history, "history", 0, "serve: samples retained per series (0 = 2*(train+horizon))")
	flag.IntVar(&sc.shards, "shards", 0, "serve: state-store shard count (0 = default)")
	flag.Int64Var(&sc.maxBody, "max-body", 0, "serve: ingest body cap in bytes (0 = default, <0 = unlimited)")
	flag.StringVar(&sc.events, "events", "", "serve: append decision events as JSONL to this file")
	flag.StringVar(&sc.spans, "spans", "", "serve: append spans as JSONL to this file (size-rotated)")
	flag.Int64Var(&sc.spansMax, "spans-max-bytes", 0, "serve: span file rotation threshold (0 = default 64 MiB)")
	flag.Parse()

	obs.EnableRuntimeMetrics()
	reg := actuator.NewRegistry()
	var svc *serve.Service
	closeObs := func() {}
	if *serveFlag {
		cfg, err := sc.build(reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmd: %v\n", err)
			os.Exit(2)
		}
		closeObs, err = sc.attachObs(&cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmd: %v\n", err)
			os.Exit(2)
		}
		svc, err = serve.New(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmd: %v\n", err)
			os.Exit(2)
		}
		svc.Start()
		log.Printf("atmd: streaming service on (train=%d horizon=%d spd=%d reuse=%v actuate=%v dry-run=%v policy=%q history=%d shards=%d)",
			sc.train, sc.horizon, sc.spd, sc.reuse, sc.actuate, sc.dryRun, sc.policyFile, cfg.History, svc.Store().Shards())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(reg, svc, *pprofEnabled, time.Now()),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("atmd: serving cgroup API on %s (pprof=%v)", *addr, *pprofEnabled)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// Listener failed before any signal (e.g. port in use).
		fmt.Fprintf(os.Stderr, "atmd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Printf("atmd: signal received, draining for up to %v", *grace)
	if svc != nil {
		// Flip /readyz to 503 before closing the listener so load
		// balancers stop routing while in-flight requests drain.
		svc.BeginDrain()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "atmd: shutdown: %v\n", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "atmd: %v\n", err)
		os.Exit(1)
	}
	if svc != nil {
		// HTTP is quiet now; stop the engine and let in-flight pipeline
		// steps finish before exiting.
		log.Printf("atmd: draining engine")
		svc.Drain()
	}
	// Flush the durable event/span sinks after the engine stops
	// publishing.
	closeObs()
	log.Printf("atmd: drained, exiting")
}
