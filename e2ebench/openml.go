package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/remote"
	"repro/internal/workloads/openml"
)

// openmlPerSecond sizes the stream: 50 pipelines per nominal second, so
// the configured 20 s runs 1000.
const openmlPerSecond = 50

// runOpenML is openml-stream: one client runs a seeded stream of
// OpenML-style pipelines with warmstart on the 1000-row credit-g table, on
// an EG that grows from empty. Pipelines the server did not warmstart must
// match a local reuse-free reference exactly.
func runOpenML(cfg config, rep *report) error {
	var frame *data.Frame
	var pipes []openml.Pipeline
	srv, setupTimes, err := timedSetups(func() (*collabd, error) {
		d, err := startCollabd(cfg.bin, cfg.path("collabd-openml.log"))
		if err != nil {
			return nil, err
		}
		frame, pipes = openmlInputs(cfg.seed, openmlPerSecond*cfg.seconds)
		return d, nil
	})
	if err != nil {
		return err
	}
	defer srv.stop()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	timed := &timedOptimizer{rc: remote.NewClient(srv.url, cost.Remote())}
	client := core.NewClient(timed)
	m := e2e{
		setup:       setupTimes,
		ops:         &samples{},
		optimize:    &timed.optimize,
		update:      &timed.update,
		artifact:    &timed.fetch,
		passWhat:    fmt.Sprintf("stream_s: %d pipelines on an EG growing from empty", len(pipes)),
		opsWhat:     "pipeline_p50_ms/pipeline_tail_ms: one pipeline's Run",
		routeWhat:   "client round-trip",
		cpuWhat:     "whole stream",
		qualityWhat: "pipeline_quality: mean model quality",
	}
	totals := &runTotals{}
	// cold holds the evaluation score of each pipeline whose model was
	// neither warmstarted nor reused from a warmstarted run.
	cold := map[int]float64{}
	warmModels := map[string]bool{}

	before, err := take(srv, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.sample()
	}
	rss := srv.sampleRSS()
	start := time.Now()
	for i, p := range pipes {
		w := p.Build(frame)
		rep.attempted++
		runStart := time.Now()
		res, err := client.Run(w)
		lat := time.Since(runStart)
		if err == nil {
			err = timed.rc.Err()
		}
		if err != nil {
			m.ops.fail()
			rep.opFailed("pipeline %d (%s): %v", i, p, err)
			continue
		}
		m.ops.add(lat)
		totals.add(res, w)
		model := modelNode(w)
		if model == nil {
			rep.mismatch("pipeline %d (%s): no model vertex", i, p)
			continue
		}
		if model.Content != nil {
			m.quality = append(m.quality, model.Quality)
		}
		if model.Warmstarted {
			warmModels[model.ID] = true
		}
		if !warmModels[model.ID] {
			cold[i] = openml.EvalScore(w)
		}
	}
	m.passes = []float64{time.Since(start).Seconds()}
	m.rss = rss.finish()
	var util float64
	var utilN int
	if tr != nil {
		util, utilN = tr.finish()
	}
	after, err := take(srv, tr)
	if err != nil {
		return err
	}

	// Reference, outside the timed phase: every cold pipeline recomputed
	// locally with no server.
	for i, got := range cold {
		w := pipes[i].Build(frame)
		if _, err := core.Execute(w, nil, nil); err != nil {
			return fmt.Errorf("reference pipeline %d: %w", i, err)
		}
		if want := openml.EvalScore(w); !sameValue(got, want) {
			rep.mismatch("pipeline %d (%s): score %v, reference %v", i, pipes[i], got, want)
		}
	}

	m.peakMB = after.proc.hwmMB
	m.cpuSec = after.proc.cpuSec - before.proc.cpuSec
	m.requests = after.prom.requestsServed() - before.prom.requestsServed()
	fmt.Println("end-to-end:")
	m.emit(rep)
	info("openml.cold_checked", "count", float64(len(cold)),
		fmt.Sprintf("of %d pipelines matched the local reference exactly", len(pipes)))
	if tr != nil {
		fmt.Println("per-layer (whole stream):")
		emitLayers(rep, layerInputs{before: before, after: after, runs: totals, timed: timed, util: util, utilN: utilN})
	}
	recordPass(cfg, rep, m.passes[0])
	return nil
}

// openmlInputs builds the stream's inputs. Like OpenML Task 31, every
// pipeline runs on one fixed dataset (the credit-g stand-in); the seed
// draws the n pipelines, so quality and cost do not swing with a
// dataset's separability.
func openmlInputs(seed int64, n int) (*data.Frame, []openml.Pipeline) {
	frame := openml.GenerateDataset(openml.DefaultConfig())
	cfg := openml.DefaultConfig()
	cfg.Seed = seed
	return frame, openml.SamplePipelines(cfg, n, true)
}

// modelNode returns the pipeline's trained model vertex.
func modelNode(w *graph.DAG) *graph.Node {
	for _, n := range w.Nodes() {
		if n.Op != nil && opFamily(n.Op.Name()) == familyTrain {
			return n
		}
	}
	return nil
}
