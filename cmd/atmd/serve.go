package main

import (
	"fmt"
	"os"

	"atm/internal/actuator"
	"atm/internal/actuator/policy"
	"atm/internal/control"
	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/obs"
	"atm/internal/serve"
)

// serveConfig assembles the streaming-service configuration from the
// daemon's flags; the service itself lives in internal/serve.
type serveConfig struct {
	train, horizon, spd int
	threshold, epsilon  float64
	reuse, actuate      bool
	robust              bool
	dryRun              bool
	policyFile          string
	workers, history    int
	shards              int
	maxBody             int64
	events, spans       string
	spansMax            int64
}

// build turns the flag bundle into a serve.Config, defaulting history
// to two full pipeline windows. backend is the actuation target wired
// in when -actuate (writes) or -dry-run (what-if reads only) ask for
// one — for this daemon, its own cgroup registry.
func (c serveConfig) build(backend actuator.Backend) (serve.Config, error) {
	if c.train <= 0 || c.horizon <= 0 || c.spd <= 0 {
		return serve.Config{}, fmt.Errorf("atmd: -train, -horizon and -spd must be positive")
	}
	cfg := engine.Config{
		Core: core.Config{
			TrainWindows: c.train,
			Horizon:      c.horizon,
			Threshold:    c.threshold,
			Epsilon:      c.epsilon,
			Degraded:     true,
		},
		SamplesPerDay: c.spd,
		Workers:       c.workers,
	}
	if c.reuse {
		cfg.Core.Reuse = core.ReusePolicy{Enabled: true}
	}
	if c.robust {
		// Adaptive trust with the calibrated defaults: plans blend
		// toward the stingy safe allocation when the rolling forecast
		// error degrades (λ and the blend reason surface on every plan,
		// decision event and debug snapshot).
		cfg.Control = control.Config{Enabled: true}
	}
	if c.actuate || c.dryRun {
		// Policy rails compose in front of Backend, and the what-if
		// route reads current limits through it.
		cfg.Backend = backend
	}
	cfg.DryRun = c.dryRun
	if c.policyFile != "" {
		if cfg.Backend == nil {
			return serve.Config{}, fmt.Errorf("atmd: -policy requires -actuate or -dry-run")
		}
		pc, err := policy.Load(c.policyFile)
		if err != nil {
			return serve.Config{}, fmt.Errorf("atmd: -policy: %w", err)
		}
		cfg.Policy = &pc
	}
	history := c.history
	if history <= 0 {
		history = 2 * (c.train + c.horizon)
	}
	return serve.Config{
		History: history,
		Shards:  c.shards,
		Engine:  cfg,
		MaxBody: c.maxBody,
	}, nil
}

// attachObs wires the durable observability sinks the flags asked for:
// -events FILE attaches a JSONL sink to the decision event log, and
// -spans FILE adds a size-rotated span exporter next to the in-memory
// ring. The returned closer flushes both on shutdown.
func (c serveConfig) attachObs(cfg *serve.Config) (func(), error) {
	var closers []func()
	closeAll := func() {
		for _, f := range closers {
			f()
		}
	}
	if c.events != "" {
		f, err := os.Create(c.events)
		if err != nil {
			return nil, fmt.Errorf("atmd: -events: %w", err)
		}
		log := obs.NewEventLog(obs.DefaultEventCap)
		log.AttachSink(f)
		cfg.Events = log
		closers = append(closers, func() {
			log.Close()
			_ = f.Close()
		})
	}
	if c.spans != "" {
		exp, err := obs.NewFileSpanExporter(c.spans, c.spansMax)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("atmd: -spans: %w", err)
		}
		cfg.SpanExporters = append(cfg.SpanExporters, exp)
		closers = append(closers, func() { _ = exp.Close() })
	}
	return closeAll, nil
}
