package main

import (
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/remote"
)

// timedOptimizer wraps the remote client handed to core.NewClient and
// times each round-trip from the caller's side. core.Client.Run
// type-asserts optional interfaces on its optimizer, so the decorator
// implements exactly the ones *remote.Client does — RequestOptimizer,
// RunReporter and TieredFetcher — and nothing more (pinned by
// TestTimedOptimizerInterfaces); dropping one would silently turn off
// request IDs or calibration.
type timedOptimizer struct {
	rc *remote.Client
	// optimize, update and fetch hold per-call round-trip times. Update
	// includes the artifact uploads the server asked for.
	optimize, update, fetch samples
}

var (
	_ core.Optimizer        = (*timedOptimizer)(nil)
	_ core.RequestOptimizer = (*timedOptimizer)(nil)
	_ core.RunReporter      = (*timedOptimizer)(nil)
	_ core.TieredFetcher    = (*timedOptimizer)(nil)
)

func (t *timedOptimizer) Optimize(w *graph.DAG) *core.Optimization {
	start := time.Now()
	opt := t.rc.Optimize(w)
	t.optimize.add(time.Since(start))
	return opt
}

func (t *timedOptimizer) OptimizeReq(w *graph.DAG, requestID string) *core.Optimization {
	start := time.Now()
	opt := t.rc.OptimizeReq(w, requestID)
	t.optimize.add(time.Since(start))
	return opt
}

func (t *timedOptimizer) Update(executed *graph.DAG) {
	start := time.Now()
	t.rc.Update(executed)
	t.update.add(time.Since(start))
}

func (t *timedOptimizer) UpdateReq(executed *graph.DAG, requestID string) {
	start := time.Now()
	t.rc.UpdateReq(executed, requestID)
	t.update.add(time.Since(start))
}

func (t *timedOptimizer) ReportRun(run calib.ClientRun, requestID string) {
	t.rc.ReportRun(run, requestID)
}

func (t *timedOptimizer) Fetch(id string) graph.Artifact {
	start := time.Now()
	a := t.rc.Fetch(id)
	t.fetch.add(time.Since(start))
	return a
}

func (t *timedOptimizer) FetchTiered(id string) (graph.Artifact, string, time.Duration) {
	start := time.Now()
	a, tier, cost := t.rc.FetchTiered(id)
	t.fetch.add(time.Since(start))
	return a, tier, cost
}

func (t *timedOptimizer) LoadCostOf(sizeBytes int64) time.Duration {
	return t.rc.LoadCostOf(sizeBytes)
}
