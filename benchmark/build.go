package main

import (
	"fmt"
	"strconv"
	"time"

	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// layers names the optional observers of server.Step that server.Config can
// switch; the cost ladder turns them on one rung at a time, every other run
// has them all on, as mzserver ships.
type layers struct {
	trace, slo, journal, history bool
}

var allLayers = layers{trace: true, slo: true, journal: true, history: true}

// buildOpts selects how an instance differs from the shipped wiring.
type buildOpts struct {
	layers layers
	// traced, when set, makes this the traced run's build: the history
	// store is left out of the engine configs so the driver can time
	// Store.Sample itself, and every shard of a cluster is wrapped in a
	// timedEngine recording into a child of this recorder.
	traced *spanRec
}

// instance is one fully wired system under test: what cmd/mzserver has in
// hand when its round loop starts.
type instance struct {
	spec   *workloadSpec
	reg    *telemetry.Registry
	jnl    *journal.Journal
	ledger *journal.Ledger
	hist   *history.Store
	// histOutside is set when no engine samples hist: the driver must.
	histOutside bool
	// servers holds every shard's server (one for a single-server
	// workload); coord is nil for a single server.
	servers []*server.Server
	coord   *cluster.Coordinator
}

// buildTimes splits one cold build by layer.
type buildTimes struct {
	total     time.Duration
	serverNew time.Duration // every server.New call, model solves included
	catalog   time.Duration // every AddObject call
}

// build wires registry, journal, ledger, history, models, engines and
// catalog the way cmd/mzserver does (single-server or cluster mode by the
// workload's shard count) and returns when the first Open is possible.
func build(in *inputs, o buildOpts) (*instance, buildTimes, error) {
	var bt buildTimes
	start := time.Now()
	spec := in.spec
	inst := &instance{spec: spec, reg: telemetry.NewRegistry(), histOutside: o.traced != nil}
	if o.layers.journal {
		inst.jnl = journal.New(journal.Config{Registry: inst.reg})
		inst.ledger = journal.NewLedger(journal.LedgerConfig{})
	}
	if o.layers.history {
		inst.hist = history.New(history.Config{Registry: inst.reg})
	}
	// The telemetry mux registers these when mzserver listens; a server
	// that is scraped at all carries them in its registry and history.
	model.RegisterTelemetry(inst.reg)
	telemetry.RegisterRuntimeMetrics(inst.reg)

	engineHist := inst.hist
	if inst.histOutside {
		engineHist = nil
	}
	sizes := workload.PaperSizes()
	engines := make([]engine.Engine, spec.Shards)
	for i := range engines {
		cfg := server.Config{
			Disk:        disk.QuantumViking21(),
			NumDisks:    spec.Disks,
			RoundLength: roundLength,
			Sizes:       sizes,
			Guarantee:   model.Guarantee{Threshold: guaranteeDelta},
			Seed:        in.seed,
			Faults:      in.plans[i],
			Degrade:     server.DegradeConfig{Enabled: spec.Degrade},
			Trace:       trace.Config{Disabled: !o.layers.trace},
			SLO:         slo.Config{Disabled: !o.layers.slo},
			Registry:    inst.reg,
			Journal:     inst.jnl,
			Ledger:      inst.ledger,
			History:     engineHist,
		}
		if spec.cluster() {
			// Cluster mode as shipped: per-shard seeds and labels, shard
			// tracing off, history sampled by the coordinator.
			cfg.Seed = in.seed + uint64(i)*0x9e3779b9
			cfg.Trace = trace.Config{Disabled: true}
			cfg.Shard = i
			cfg.InstanceLabels = []telemetry.Label{telemetry.L("shard", strconv.Itoa(i))}
			cfg.History = nil
		}
		t0 := time.Now()
		srv, err := server.New(cfg)
		bt.serverNew += time.Since(t0)
		if err != nil {
			return nil, bt, fmt.Errorf("building shard %d: %w", i, err)
		}
		inst.servers = append(inst.servers, srv)
		engines[i] = srv
		if o.traced != nil && spec.cluster() {
			engines[i] = &timedEngine{Engine: srv, rec: o.traced.child(), shard: int8(i)}
		}
	}
	if spec.cluster() {
		coord, err := cluster.New(cluster.Config{
			Engines:  engines,
			Route:    spec.Route,
			Replicas: spec.Replicas,
			Registry: inst.reg,
			Migrate:  spec.Migrate,
			Journal:  inst.jnl,
			Ledger:   inst.ledger,
			History:  engineHist,
		})
		if err != nil {
			return nil, bt, fmt.Errorf("building coordinator: %w", err)
		}
		inst.coord = coord
	}
	t0 := time.Now()
	for i, name := range in.names {
		var err error
		if inst.coord != nil {
			err = inst.coord.AddObject(name, in.sizes[i])
		} else {
			err = inst.servers[0].AddObject(name, in.sizes[i])
		}
		if err != nil {
			return nil, bt, fmt.Errorf("adding %s: %w", name, err)
		}
	}
	bt.catalog = time.Since(t0)
	bt.total = time.Since(start)
	return inst, bt, nil
}

// active sums the open streams across the instance's engines.
func (inst *instance) active() int {
	n := 0
	for _, s := range inst.servers {
		n += s.Active()
	}
	return n
}
