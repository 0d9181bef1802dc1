// Command e2ebench is the end-to-end benchmark of the collaborative
// optimizer: it starts the real collabd binary as a child process and
// drives one named workload against it over loopback HTTP through the
// public client path, then prints every metric by name with its unit and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// same workload runs with client-side instrumentation and before/after
// server scrapes, and the metrics are the per-layer set. Any output
// mismatch or failed operation makes the command exit 1. See README.md.
//
// Usage (from the repository root, via run.sh which builds collabd):
//
//	bash e2ebench/run.sh --workload kaggle-seq --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// config is what every workload receives.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // collabd binary
	work     string // scratch directory for logs and store directories
}

func (c config) path(name string) string { return filepath.Join(c.work, name) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's outcome and its two metric sets. Every metric
// is also printed as a report line the moment it is set.
type report struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]metric
	layers    map[string]metric
}

func newReport() *report {
	return &report{correct: true, e2e: map[string]metric{}, layers: map[string]metric{}}
}

// set records an end-to-end metric; note carries its sample count, its
// base, or what it measures on this workload.
func (r *report) set(name, unit string, v float64, note string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	info(name, unit, v, note)
}

// layer records a per-layer metric.
func (r *report) layer(name, unit string, v float64, note string) {
	r.layers[name] = metric{Value: v, Unit: unit}
	info(name, unit, v, note)
}

// info prints one report line. Lines printed without set or layer are not
// part of the JSON result: the workload's own names for the metrics it
// feeds, and the ungated tails.
func info(name, unit string, v float64, note string) {
	fmt.Printf("  %-32s %12.6g %-5s %s\n", name, v, unit, note)
}

// mismatch marks the run incorrect and says why on stderr.
func (r *report) mismatch(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "e2ebench: MISMATCH: "+format+"\n", args...)
}

// opFailed counts a failed operation; any failure fails the run.
func (r *report) opFailed(format string, args ...any) {
	r.failed++
	r.mismatch(format, args...)
}

// resultLine renders the final JSON line. Non-finite values (failed
// operations in a latency tail) are clamped so the line stays valid JSON.
func (r *report) resultLine(layers bool) ([]byte, error) {
	src := r.e2e
	if layers {
		src = r.layers
	}
	ms := make(map[string]metric, len(src))
	for k, m := range src {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			m.Value = math.MaxFloat64
		}
		ms[k] = m
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// workloads maps each name in BENCHMARK.json to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"kaggle-seq":    runKaggle,
	"openml-stream": runOpenML,
	"serve-mixed":   runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kaggle-seq|openml-stream|serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; equal seeds give equal inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal measured seconds; sizes each workload's fixed work")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bin, "collabd", "", "path to the collabd binary")
	flag.StringVar(&cfg.work, "workdir", "", "scratch directory for logs and store directories")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.bin == "" || cfg.work == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload kaggle-seq|openml-stream|serve-mixed --seed N --seconds S --trace 0|1 --collabd BIN --workdir DIR")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	mode := "untraced: end-to-end metrics"
	if cfg.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Printf("e2ebench %s seed=%d seconds=%d (%s)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	start := time.Now()
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := rep.resultLine(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Printf("total %.1fs; attempted %d, failed %d, correct %v\n",
		time.Since(start).Seconds(), rep.attempted, rep.failed, rep.correct)
	fmt.Println(string(line))
	os.Exit(rep.exitCode())
}

// exitCode is 0 only for a run with correct outputs and no failed
// operation.
func (r *report) exitCode() int {
	if !r.correct || r.failed > 0 {
		return 1
	}
	return 0
}
