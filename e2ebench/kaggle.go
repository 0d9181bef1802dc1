package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/remote"
	"repro/internal/workloads/kaggle"
)

const (
	// kaggleScale sizes the Home Credit tables (8k applications).
	kaggleScale = 4
	// kaggleMemBudget is below the ~45 MB the store keeps physically after
	// one pass at scale 4, so artifacts demote to the disk tier.
	kaggleMemBudget = 16 << 20
)

// runKaggle is kaggle-seq. Each of `setups` rounds starts an empty
// collabd with a disk tier and a tight memory budget; one client runs
// Table-1 workloads W1→W8 once (the Fig 5 endpoint), then repeats the
// sequence seconds/2 times (Fig 4 run 2). Every job's terminal aggregates
// must equal a reuse-free local reference computed outside the timed
// phases. pass_s is the median first pass over the rounds; per-layer
// metrics cover the last round.
func runKaggle(cfg config, rep *report) error {
	storeDir := cfg.path("kaggle-store")
	defer os.RemoveAll(storeDir)
	m := e2e{
		ops: &samples{}, optimize: &samples{}, update: &samples{}, artifact: &samples{},
		passWhat:    "first_pass_s: W1→W8 on an empty server",
		opsWhat:     "one job's Run, all passes",
		routeWhat:   "client round-trip",
		cpuWhat:     "first passes",
		qualityWhat: "mean terminal evaluation score of the first passes",
	}
	var ref map[int]map[string]float64
	var repeats []float64
	var layers *layerInputs
	for round := 0; round < setups; round++ {
		_ = os.RemoveAll(storeDir)
		start := time.Now()
		srv, err := startCollabd(cfg.bin, cfg.path("collabd-kaggle.log"),
			"-store-dir", storeDir, "-mem-budget", strconv.Itoa(kaggleMemBudget))
		if err != nil {
			return err
		}
		src := kaggle.Generate(kaggle.Config{Scale: kaggleScale, Seed: cfg.seed})
		m.setup = append(m.setup, time.Since(start).Seconds())
		if ref == nil {
			if ref, err = kaggleReference(src); err != nil {
				srv.stop()
				return err
			}
		}
		r, lin, err := kaggleRound(cfg, rep, srv, src, ref, &m, cfg.trace && round == setups-1)
		srv.stop()
		if err != nil {
			return err
		}
		repeats = append(repeats, r...)
		layers = lin
	}
	fmt.Println("end-to-end:")
	m.emit(rep)
	rs := summarize(repeats)
	info("repeat_pass_s", "s", rs.P50, fmt.Sprintf("median repeat pass, n=%d", rs.N))
	if layers != nil {
		fmt.Println("per-layer (last round):")
		emitLayers(rep, *layers)
	}
	recordPass(cfg, rep, median(m.passes))
	return nil
}

// kaggleRound drives one server: the first pass and the repeat passes.
// It returns the repeat-pass walls and, with trace set, the inputs of this
// round's per-layer metrics.
func kaggleRound(cfg config, rep *report, srv *collabd, src *kaggle.Sources,
	ref map[int]map[string]float64, m *e2e, trace bool) ([]float64, *layerInputs, error) {
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	timed := &timedOptimizer{rc: remote.NewClient(srv.url, cost.Remote())}
	client := core.NewClient(timed)
	totals := &runTotals{}
	before, err := take(srv, tr)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.sample()
	}
	rss := srv.sampleRSS()
	var repeats []float64
	for p := 0; p <= cfg.seconds/2; p++ {
		start := time.Now()
		for _, wl := range kaggle.AllWorkloads() {
			w := wl.Build(src)
			rep.attempted++
			runStart := time.Now()
			res, err := client.Run(w)
			lat := time.Since(runStart)
			if err == nil {
				err = timed.rc.Err()
			}
			if err != nil {
				m.ops.fail()
				rep.opFailed("W%d pass %d: %v", wl.ID, p, err)
				continue
			}
			m.ops.add(lat)
			totals.add(res, w)
			scores := checkTerminals(rep, w, ref[wl.ID], fmt.Sprintf("W%d pass %d", wl.ID, p))
			if p == 0 {
				m.quality = append(m.quality, scores...)
			}
		}
		wall := time.Since(start).Seconds()
		if p > 0 {
			repeats = append(repeats, wall)
			continue
		}
		m.passes = append(m.passes, wall)
		first, err := take(srv, nil)
		if err != nil {
			return nil, nil, err
		}
		m.cpuSec += first.proc.cpuSec - before.proc.cpuSec
		m.requests += first.prom.requestsServed() - before.prom.requestsServed()
	}
	m.rss = append(m.rss, rss.finish()...)
	var util float64
	var utilN int
	if tr != nil {
		util, utilN = tr.finish()
	}
	after, err := take(srv, tr)
	if err != nil {
		return nil, nil, err
	}
	m.peakMB = math.Max(m.peakMB, after.proc.hwmMB)
	for _, pair := range [][2]*samples{{m.optimize, &timed.optimize}, {m.update, &timed.update}, {m.artifact, &timed.fetch}} {
		pair[0].ms = append(pair[0].ms, pair[1].ms...)
	}
	if tr == nil {
		return repeats, nil, nil
	}
	return repeats, &layerInputs{before: before, after: after, runs: totals, timed: timed, util: util, utilN: utilN}, nil
}

// kaggleReference runs every Table-1 workload locally with no reuse and
// returns the terminal aggregate values per workload, keyed by vertex ID.
func kaggleReference(src *kaggle.Sources) (map[int]map[string]float64, error) {
	ref := map[int]map[string]float64{}
	for _, wl := range kaggle.AllWorkloads() {
		w := wl.Build(src)
		if _, err := core.Execute(w, nil, nil); err != nil {
			return nil, fmt.Errorf("reference W%d: %w", wl.ID, err)
		}
		ref[wl.ID] = terminalAggregates(w)
	}
	return ref, nil
}

// terminalAggregates maps each terminal aggregate vertex to its value.
func terminalAggregates(w *graph.DAG) map[string]float64 {
	out := map[string]float64{}
	for _, n := range w.Terminals() {
		if agg, ok := n.Content.(*graph.AggregateArtifact); ok {
			out[n.ID] = agg.Value
		}
	}
	return out
}

// checkTerminals compares a finished run's terminal aggregates with the
// reference and returns the evaluation scores among them.
func checkTerminals(rep *report, w *graph.DAG, want map[string]float64, what string) []float64 {
	got := terminalAggregates(w)
	if len(got) != len(want) {
		rep.mismatch("%s: %d terminal aggregates, reference has %d", what, len(got), len(want))
	}
	var scores []float64
	for id, v := range want {
		g, ok := got[id]
		if !ok || !sameValue(g, v) {
			rep.mismatch("%s: terminal %s = %v (present %v), reference %v", what, id, g, ok, v)
			continue
		}
		if n := w.Node(id); n != nil && isEval(n) {
			scores = append(scores, g)
		}
	}
	return scores
}
