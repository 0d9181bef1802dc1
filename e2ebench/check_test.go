package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workloads/openml"
)

func executedPipeline(t *testing.T) *graph.DAG {
	t.Helper()
	ocfg := openml.Config{Rows: 200, Features: 8, Seed: 3}
	w := openml.SamplePipelines(ocfg, 1, false)[0].Build(openml.GenerateDataset(ocfg))
	if _, err := core.Execute(w, nil, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

// A deliberately wrong reference value must fail the run and its exit code.
func TestWrongTerminalFailsTheRun(t *testing.T) {
	w := executedPipeline(t)
	ref := terminalAggregates(w)
	if len(ref) == 0 {
		t.Fatal("pipeline has no terminal aggregate")
	}
	rep := newReport()
	if scores := checkTerminals(rep, w, ref, "exact"); len(scores) != 1 || rep.exitCode() != 0 {
		t.Fatalf("matching outputs: scores %v, exit %d", scores, rep.exitCode())
	}
	for id, v := range ref {
		ref[id] = math.Nextafter(v, 2) // one ulp off
	}
	rep = newReport()
	checkTerminals(rep, w, ref, "one ulp off")
	if rep.correct || rep.exitCode() != 1 {
		t.Fatalf("wrong output accepted: correct=%v exit=%d", rep.correct, rep.exitCode())
	}
}

// An artifact body whose content differs from the seeded one is rejected.
func TestArtifactCheckRejectsWrongContent(t *testing.T) {
	seeded := &graph.AggregateArtifact{Value: 0.75}
	body, err := encode(&artifactEnvelope{Content: seeded})
	if err != nil {
		t.Fatal(err)
	}
	good := &artifactTarget{id: "v", want: digest(seeded), seen: map[[32]byte]bool{}}
	if err := good.check(body); err != nil {
		t.Fatalf("matching content rejected: %v", err)
	}
	if err := good.check(body); err != nil || len(good.seen) != 1 {
		t.Fatalf("repeat body: err %v, %d bodies remembered", err, len(good.seen))
	}
	wrong := &artifactTarget{id: "v", want: digest(&graph.AggregateArtifact{Value: 0.5}), seen: map[[32]byte]bool{}}
	if err := wrong.check(body); err == nil {
		t.Fatal("wrong content accepted")
	}
	if err := wrong.check([]byte("not gob")); err == nil {
		t.Fatal("undecodable body accepted")
	}
}

// A failed operation fails the run, and its infinite latency still
// renders as valid JSON.
func TestFailedOperationResultLine(t *testing.T) {
	rep := newReport()
	rep.attempted = 2
	rep.opFailed("request %d refused", 1)
	var s samples
	s.fail()
	rep.set("op_tail_ms", "ms", summarize(s.ms).Tail, "")
	line, err := rep.resultLine(false)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if got.Correct || got.Failed != 1 || got.Attempted != 2 || rep.exitCode() != 1 {
		t.Fatalf("failed op not reported: %s (exit %d)", line, rep.exitCode())
	}
}
