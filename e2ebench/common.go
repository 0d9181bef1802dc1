package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/remote"
)

// setups is how many times each run sets up from scratch; setup_s is the
// median, so one slow process start does not move it.
const setups = 3

// timedSetups runs setup `setups` times, stopping the previous server
// outside the timed region, and keeps the last server. It returns the
// per-setup wall times.
func timedSetups(setup func() (*collabd, error)) (*collabd, []float64, error) {
	var d *collabd
	var times []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		nd, err := setup()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		d = nd
	}
	return d, times, nil
}

// snapshot is the state read before and after a measured phase. The
// server side is always read (outside the timed region); the client side
// only in traced runs.
type snapshot struct {
	proc   procSample
	prom   promSample
	stats  *remote.Stats
	mem    runtime.MemStats
	cpuSec float64
	pool   parallel.Stats
	kernel promSample
}

func take(d *collabd, tr *tracer) (snapshot, error) {
	var s snapshot
	var err error
	if s.proc, err = d.proc(); err != nil {
		return s, fmt.Errorf("read collabd /proc: %w", err)
	}
	if s.prom, err = d.metrics(); err != nil {
		return s, fmt.Errorf("scrape /metrics: %w", err)
	}
	if s.stats, err = d.stats(); err != nil {
		return s, fmt.Errorf("fetch /v1/stats: %w", err)
	}
	if tr == nil {
		return s, nil
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuSec = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	s.pool = parallel.ReadStats()
	var buf bytes.Buffer
	if err := tr.reg.WritePrometheus(&buf); err != nil {
		return s, err
	}
	s.kernel, err = parseProm(&buf)
	return s, err
}

// tracer is the client-side instrumentation of a traced run: the data
// kernels' counters and the parallel pool's accounting, registered in a
// private registry, plus a sampler of pool utilization.
type tracer struct {
	reg  *obs.Registry
	stop chan struct{}
	done chan struct{}
	util []float64
}

func newTracer() *tracer {
	reg := obs.NewRegistry()
	data.RegisterMetrics(reg)
	parallel.RegisterMetrics(reg)
	return &tracer{reg: reg}
}

// sample polls pool utilization every 10ms until finish.
func (t *tracer) sample() {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.util = append(t.util, parallel.ReadStats().Utilization)
			}
		}
	}()
}

// finish stops the sampler and returns the mean utilization and its
// sample count.
func (t *tracer) finish() (float64, int) {
	close(t.stop)
	<-t.done
	var sum float64
	for _, u := range t.util {
		sum += u
	}
	return ratio(sum, float64(len(t.util))), len(t.util)
}

// families are the operator families per-node compute time is split into.
var families = []string{"join", "groupby", "onehot", "train", "eval", "other"}

const familyTrain = 3

func opFamily(name string) int {
	for i, prefix := range []string{"join:", "groupby:", "onehot", "train:", "evaluate:"} {
		if strings.HasPrefix(name, prefix) {
			return i
		}
	}
	return len(families) - 1
}

// isEval reports whether a vertex is a model evaluation.
func isEval(n *graph.Node) bool {
	return n.Op != nil && strings.HasPrefix(n.Op.Name(), "evaluate:")
}

// runTotals sums what the client executor reported over a phase's runs.
type runTotals struct {
	runs                              int
	exec, compute                     time.Duration
	executed, reused, skipped, warmed int
	family                            [6]time.Duration
}

func (t *runTotals) add(res *core.RunResult, w *graph.DAG) {
	t.runs++
	t.exec += res.WallTime
	t.compute += res.ComputeTime
	t.executed += res.Executed
	t.reused += res.Reused
	t.skipped += res.Skipped
	t.warmed += res.Warmstarted
	for _, n := range w.Nodes() {
		if n.Op != nil && !n.LoadedFromEG && n.ComputeTime > 0 {
			t.family[opFamily(n.Op.Name())] += n.ComputeTime
		}
	}
}

// e2e holds one workload's end-to-end measurements in the shape every
// workload reports; each workload says what its fields mean.
type e2e struct {
	setup    []float64
	rss      []float64 // collabd VmRSS samples over the measured phase
	peakMB   float64
	passes   []float64 // walls of the workload's fixed closed-loop work
	passWhat string
	ops      *samples
	opsWhat  string
	// optimize/update/artifact latencies, and how they were timed.
	optimize, update, artifact *samples
	routeWhat                  string
	cpuSec, requests           float64
	cpuWhat                    string
	quality                    []float64
	qualityWhat                string
}

// emit reports the end-to-end set, in BENCHMARK.json order. Tails, the
// artifact median and the median over all operations are printed but stay
// out of the JSON result: on a shared 2-vCPU host their run-to-run spread
// comes too close to, or exceeds, the largest usable bound (see README).
func (m *e2e) emit(rep *report) {
	rep.set("setup_s", "s", median(m.setup), fmt.Sprintf("median of %d set-ups %s", len(m.setup), fmtList(m.setup)))
	rep.set("server_rss_mb", "MB", median(m.rss),
		fmt.Sprintf("median collabd VmRSS over the measured phase, n=%d; peak (VmHWM) %.1f MB", len(m.rss), m.peakMB))
	rep.set("pass_s", "s", median(m.passes), fmt.Sprintf("%s, median of %s", m.passWhat, fmtList(m.passes)))
	for _, r := range []struct {
		name string
		s    *samples
	}{{"optimize", m.optimize}, {"update", m.update}} {
		sum := summarize(r.s.ms)
		rep.set(r.name+"_p50_ms", "ms", sum.P50, fmt.Sprintf("%s, n=%d", m.routeWhat, sum.N))
		printTail(r.name, sum)
	}
	for _, r := range []struct {
		name, what string
		s          *samples
	}{{"artifact", m.routeWhat, m.artifact}, {"op", m.opsWhat, m.ops}} {
		sum := summarize(r.s.ms)
		info(r.name+"_p50_ms", "ms", sum.P50, fmt.Sprintf("%s, n=%d (not gated)", r.what, sum.N))
		printTail(r.name, sum)
	}
	rep.set("cpu_ms_per_req", "ms", 1000*ratio(m.cpuSec, m.requests),
		fmt.Sprintf("%s: %.3f s collabd CPU / %.0f requests", m.cpuWhat, m.cpuSec, m.requests))
	var q float64
	for _, v := range m.quality {
		q += v
	}
	rep.set("quality", "score", ratio(q, float64(len(m.quality))),
		fmt.Sprintf("%s, n=%d", m.qualityWhat, len(m.quality)))
}

// printTail prints a latency tail with its percentile and sample count.
func printTail(name string, s summary) {
	info(name+"_tail_ms", "ms", s.Tail, fmt.Sprintf("p%.1f, n=%d, %d beyond (not gated)",
		s.TailPct, s.N, s.N-int(math.Round(s.TailPct*float64(s.N)/100))))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// layerInputs is everything the per-layer metrics are derived from.
type layerInputs struct {
	before, after snapshot
	runs          *runTotals      // nil when the workload executes nothing
	timed         *timedOptimizer // nil when no client optimizer ran
	gen           *genReport      // nil outside serve-mixed
	util          float64
	utilN         int
}

// emitLayers reports the per-layer set. Server-side values are deltas of
// collabd's /metrics and /v1/stats across the measured phase (gauges are
// end-of-phase values); client-side values come from the decorator, the
// executor's results, MemStats and the private kernel registry.
func emitLayers(rep *report, in layerInputs) {
	b, a := in.before, in.after
	dp := func(series string) float64 { return a.prom[series] - b.prom[series] }
	runs := in.runs
	if runs == nil {
		runs = &runTotals{}
	}
	rep.layer("core.exec_s", "s", runs.exec.Seconds(), fmt.Sprintf("executor wall over %d runs", runs.runs))
	rep.layer("core.compute_s", "s", runs.compute.Seconds(), "summed operator compute")
	rep.layer("core.overlap", "ratio", ratio(runs.compute.Seconds(), runs.exec.Seconds()),
		fmt.Sprintf("compute %.3fs / exec wall %.3fs", runs.compute.Seconds(), runs.exec.Seconds()))
	rep.layer("core.executed", "count", float64(runs.executed), "")
	rep.layer("core.reused", "count", float64(runs.reused), "")
	rep.layer("core.skipped", "count", float64(runs.skipped), "")
	rep.layer("core.warmstarted", "count", float64(runs.warmed), "")
	for i, f := range families {
		rep.layer("ops."+f+"_s", "s", runs.family[i].Seconds(), "per-node ComputeTime")
	}

	dk := func(series string) float64 { return a.kernel[series] - b.kernel[series] }
	rep.layer("data.join_rows", "count", dk("collab_data_op_join_rows_total"), "client kernels")
	rep.layer("data.groupby_rows", "count", dk("collab_data_op_groupby_rows_total"), "")
	keys, dict := dk("collab_data_op_key_rows_total"), dk("collab_data_op_dict_key_rows_total")
	rep.layer("data.dict_hit_ratio", "ratio", ratio(dict, keys), fmt.Sprintf("%.0f dict / %.0f key cells", dict, keys))

	rep.layer("parallel.calls", "count", float64(a.pool.Calls-b.pool.Calls), "client pool")
	rep.layer("parallel.queue_wait_s", "s", a.pool.QueueWaitSec-b.pool.QueueWaitSec, "")
	rep.layer("parallel.utilization", "ratio", in.util, fmt.Sprintf("mean of %d 10ms samples of live helpers / budget", in.utilN))

	rep.layer("client.cpu_s", "s", a.cpuSec-b.cpuSec, "getrusage self")
	rep.layer("client.alloc_mb", "MB", float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/(1<<20), "MemStats.TotalAlloc delta")
	rep.layer("client.mallocs", "count", float64(a.mem.Mallocs-b.mem.Mallocs), "")
	rep.layer("client.gc_cycles", "count", float64(a.mem.NumGC-b.mem.NumGC), "")

	t := in.timed
	if t == nil {
		t = &timedOptimizer{}
	}
	rep.layer("remote.optimize_rtt_s", "s", t.optimize.sumSeconds(), fmt.Sprintf("n=%d", len(t.optimize.ms)))
	rep.layer("remote.update_rtt_s", "s", t.update.sumSeconds(), fmt.Sprintf("n=%d, includes uploads", len(t.update.ms)))
	rep.layer("remote.fetch_rtt_s", "s", t.fetch.sumSeconds(), fmt.Sprintf("n=%d", len(t.fetch.ms)))
	routes := []struct{ name, path string }{
		{"optimize", "/v1/optimize"}, {"update", "/v1/update"}, {"artifact", "/v1/artifact"},
	}
	for _, r := range routes {
		n := dp(routeSeries("collab_http_request_seconds_count", r.path))
		rep.layer("remote.server_s."+r.name, "s", dp(routeSeries("collab_http_request_seconds_sum", r.path)),
			fmt.Sprintf("server handling, n=%.0f", n))
	}
	for _, r := range routes {
		rep.layer("remote.req_bytes."+r.name, "bytes", dp(routeSeries("collab_http_request_bytes_total", r.path)), "")
	}
	uploaded := dp(routeSeries("collab_http_request_bytes_total", "/v1/artifact"))
	rep.layer("remote.resp_bytes.optimize", "bytes", dp(routeSeries("collab_http_response_bytes_total", "/v1/optimize")), "")
	rep.layer("remote.resp_bytes.artifact", "bytes", dp(routeSeries("collab_http_response_bytes_total", "/v1/artifact")), "")

	bs, as := b.stats, a.stats
	rep.layer("reuse.plan_s", "s", (as.PlanTime - bs.PlanTime).Seconds(), "ΔPlanTime")
	rep.layer("reuse.loads", "count", float64(as.ReusePlanned-bs.ReusePlanned), "")
	rep.layer("reuse.candidates", "count", dp("collab_plan_reuse_candidates_total"), "")
	rep.layer("reuse.pruned_by_cost", "count", float64(as.PlanPrunedByCost-bs.PlanPrunedByCost), "")
	rep.layer("reuse.pruned_not_materialized", "count", float64(as.PlanPrunedNotMaterialized-bs.PlanPrunedNotMaterialized), "")
	rep.layer("reuse.warmstarts", "count", float64(as.WarmstartsProposed-bs.WarmstartsProposed), "")

	rep.layer("materialize.select_s", "s", (as.MatTime - bs.MatTime).Seconds(), "ΔMatTime")
	rep.layer("materialize.runs", "count", dp("collab_materialize_runs_total"), "")
	rep.layer("materialize.considered", "count", dp("collab_materialize_considered_total"), "")
	rep.layer("materialize.selected", "count", a.prom["collab_materialize_selected"], "last selection size")
	rep.layer("materialize.evictions", "count", dp("collab_materialize_evictions_total"), "")

	rep.layer("eg.vertices", "count", float64(as.Vertices), "end of phase")
	rep.layer("eg.materialized", "count", float64(as.Materialized), "end of phase")

	for _, kind := range []string{"wait", "hold"} {
		for _, sec := range []string{"optimize", "update", "materialize"} {
			series := fmt.Sprintf("collab_server_lock_%s_seconds_sum{section=%q}", kind, sec)
			rep.layer("core.lock_"+kind+"_s."+sec, "s", dp(series), "server mutex")
		}
	}

	rep.layer("store.puts", "count", dp("collab_store_puts_total"), "")
	rep.layer("store.physical_bytes", "bytes", float64(as.PhysicalBytes), "end of phase")
	rep.layer("store.logical_bytes", "bytes", float64(as.LogicalBytes), "end of phase")
	rep.layer("store.memory_bytes", "bytes", float64(as.MemoryBytes), "end of phase")
	rep.layer("store.disk_bytes", "bytes", float64(as.DiskBytes), "end of phase")
	rep.layer("store.demotions", "count", dp("collab_store_demotions_total"), "")
	rep.layer("store.promotions", "count", dp("collab_store_promotions_total"), "")
	rep.layer("store.disk_hits", "count", dp("collab_store_disk_hits_total"), "")
	rep.layer("store.fetched_bytes", "bytes", dp("collab_store_fetched_bytes_total"), "")
	rep.layer("store.lock_wait_s", "s", as.StoreLockWaitSec-bs.StoreLockWaitSec, "")
	// Tiers are inclusive, so an artifact resident in both counts twice.
	grown := float64(as.MemoryBytes + as.DiskBytes - bs.MemoryBytes - bs.DiskBytes)
	rep.layer("store.upload_useful", "ratio", ratio(grown, uploaded),
		fmt.Sprintf("Δ(memory+disk) %.0f B / uploaded %.0f B", grown, uploaded))

	rep.layer("server.cpu_s", "s", a.proc.cpuSec-b.proc.cpuSec, "collabd utime+stime")
	rep.layer("server.gc_cycles", "count", dp("go_gc_cycles_total"), "")

	g := in.gen
	if g == nil {
		g = &genReport{}
	}
	late := summarize(g.late.ms)
	rep.layer("gen.late_p99_ms", "ms", late.Tail, fmt.Sprintf("timer lateness at p%.1f, n=%d", late.TailPct, late.N))
	rep.layer("gen.conn_wait_s", "s", g.connWait.Seconds(), "due requests waiting for a free connection")

	rep.layer("calib.est_saved_s", "s", as.EstimatedSavedSec-bs.EstimatedSavedSec, "ΔEstimatedSavedSec")
}

// overheadRecord is the untraced pass time kept for the traced run of the
// same workload to compare against.
type overheadRecord struct {
	Seed  int64   `json:"seed"`
	PassS float64 `json:"pass_s"`
}

// recordPass stores (untraced) or compares against (traced) the pass time
// and, in traced runs, reports trace.overhead = traced/untraced − 1.
func recordPass(cfg config, rep *report, pass float64) {
	path := cfg.path("untraced-" + cfg.workload + ".json")
	if !cfg.trace {
		blob, _ := json.Marshal(overheadRecord{Seed: cfg.seed, PassS: pass})
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: recording untraced pass:", err)
		}
		return
	}
	var rec overheadRecord
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, &rec)
	}
	if err != nil || rec.PassS <= 0 {
		rep.layer("trace.overhead", "ratio", 0, "no untraced run of this workload recorded in this checkout")
		return
	}
	rep.layer("trace.overhead", "ratio", pass/rec.PassS-1,
		fmt.Sprintf("traced pass %.3fs / untraced pass %.3fs (seed %d) − 1", pass, rec.PassS, rec.Seed))
}

// sameValue compares two float results bit for bit (NaN equals NaN).
func sameValue(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
