package main

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/remote"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/workloads/openml"
)

// The decorator must expose exactly the optional interfaces the remote
// client does: core.Client.Run type-asserts them.
func TestTimedOptimizerInterfaces(t *testing.T) {
	optional := []reflect.Type{
		reflect.TypeOf((*core.RequestOptimizer)(nil)).Elem(),
		reflect.TypeOf((*core.RunReporter)(nil)).Elem(),
		reflect.TypeOf((*core.TieredFetcher)(nil)).Elem(),
		reflect.TypeOf((*core.RequestTieredFetcher)(nil)).Elem(),
	}
	bare := reflect.TypeOf((*remote.Client)(nil))
	timed := reflect.TypeOf((*timedOptimizer)(nil))
	for _, iface := range optional {
		if bare.Implements(iface) != timed.Implements(iface) {
			t.Errorf("%v: remote.Client implements it = %v, decorator = %v",
				iface, bare.Implements(iface), timed.Implements(iface))
		}
	}
}

// runAgainstFresh runs a warmstarted OpenML-style stream, with a repeat of its
// first pipelines, against a fresh in-process server and returns per-run
// counts and the server's final stats.
func runAgainstFresh(t *testing.T, decorate bool) ([][3]int, *remote.Stats, *timedOptimizer) {
	t.Helper()
	// Materialize-all and load-every-materialized keep the server's
	// decisions independent of measured compute times, so two runs agree.
	srv := core.NewServer(store.New(cost.Memory()), core.WithWarmstart(true),
		core.WithStrategy(materialize.NewAll()), core.WithPlanner(reuse.AllMaterialized{}))
	hs := httptest.NewServer(remote.NewHandler(srv))
	defer hs.Close()
	rc := remote.NewClient(hs.URL, cost.Remote())
	var opt core.Optimizer = rc
	var timed *timedOptimizer
	if decorate {
		timed = &timedOptimizer{rc: rc}
		opt = timed
	}
	client := core.NewClient(opt, core.WithParallelism(1))
	ocfg := openml.Config{Rows: 300, Features: 12, Seed: 7}
	frame := openml.GenerateDataset(ocfg)
	// Six logistic regressions on one prefix make warmstart donors for
	// each other; sampled pipelines add variety.
	var pipes []openml.Pipeline
	for i := 0; i < 6; i++ {
		pipes = append(pipes, openml.Pipeline{Scaler: "std", K: 5, Warmstart: true, Spec: ops.ModelSpec{
			Kind: "logreg", Params: map[string]float64{"lr": 0.05 * float64(i+1), "max_iter": 100}, Seed: 1,
		}})
	}
	pipes = append(pipes, openml.SamplePipelines(ocfg, 8, true)...)
	var counts [][3]int
	for i, p := range append(pipes, pipes[:4]...) {
		res, err := client.Run(p.Build(frame))
		if err == nil {
			err = rc.Err()
		}
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		counts = append(counts, [3]int{res.Executed, res.Reused, res.Warmstarted})
	}
	st, err := rc.StatsE()
	if err != nil {
		t.Fatal(err)
	}
	return counts, st, timed
}

// A decorated run and a bare run against fresh servers must do the same
// work and leave the servers in the same state.
func TestTimedOptimizerChangesNothing(t *testing.T) {
	bareCounts, bareStats, _ := runAgainstFresh(t, false)
	timedCounts, timedStats, timed := runAgainstFresh(t, true)
	if !reflect.DeepEqual(bareCounts, timedCounts) {
		t.Errorf("executed/reused/warmstarted per run differ:\nbare  %v\ntimed %v", bareCounts, timedCounts)
	}
	type view struct {
		Optimize, Update, Runs int64
		Materialized           int
	}
	b := view{bareStats.OptimizeCount, bareStats.UpdateCount, bareStats.Runs, bareStats.Materialized}
	d := view{timedStats.OptimizeCount, timedStats.UpdateCount, timedStats.Runs, timedStats.Materialized}
	if b != d {
		t.Errorf("/v1/stats differ: bare %+v, timed %+v", b, d)
	}
	// Runs counts calibration reports: zero would mean RunReporter was lost.
	if d.Runs != int64(len(timedCounts)) || d.Optimize != int64(len(timedCounts)) {
		t.Errorf("server saw %d runs and %d optimizes for %d client runs", d.Runs, d.Optimize, len(timedCounts))
	}
	if len(timed.optimize.ms) != len(timedCounts) || len(timed.update.ms) != len(timedCounts) {
		t.Errorf("decorator timed %d optimizes and %d updates for %d runs",
			len(timed.optimize.ms), len(timed.update.ms), len(timedCounts))
	}
}
