package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/remote"
	"repro/internal/workloads/kaggle"
)

const (
	// serveSeedPipelines OpenML pipelines join Kaggle pass 1 (scale 1)
	// in seeding, so the EG holds ~10³ vertices.
	serveSeedPipelines = 150
	// serveFresh pipelines are never run through the server: their
	// optimize bodies search warmstart donors for unseen models and their
	// update bodies grow the EG on first replay.
	serveFresh = 32
	// serveFrames and serveSmall are how many materialized Kaggle datasets
	// and small artifacts (models, aggregates) serve as artifact GET
	// targets. Which frames the materializer keeps, and so their sizes,
	// varies between runs; with two in three GETs on a small artifact the
	// median stays a small fetch and frames show in the tail.
	serveFrames = 8
	serveSmall  = 16
	// serveRate is the fixed open-loop rate, well below capacity.
	serveRate = 80
	// serveWarmup is excluded from the fixed-rate statistics.
	serveWarmup = time.Second
	// serveBatchPerSecond sizes each saturation batch per nominal second.
	serveBatchPerSecond = 50
	// serveBatches is how many saturation batches run, one after each
	// segment of the fixed-rate phase; pass_s is their median.
	serveBatches = 3
)

// serveMix is the 4:3:2:1 optimize/update/artifact/stats request mix.
var serveMix = []string{"optimize", "optimize", "optimize", "optimize",
	"update", "update", "update", "artifact", "artifact", "stats"}

// servePool is the replay material built at set-up.
type servePool struct {
	optimize, update [][]byte
	targets          []*artifactTarget
	// qualities collects the quality of every warmstart donor proposed in
	// a checked optimize response.
	mu        sync.Mutex
	qualities []float64
}

// artifactTarget is one servable artifact and the digest of the content
// the seeding client computed for it.
type artifactTarget struct {
	id   string
	want [32]byte
	mu   sync.Mutex
	// seen holds hashes of response bodies already decoded and matched,
	// so a byte-identical response is not decoded again.
	seen map[[32]byte]bool
}

// runServe is serve-mixed: collabd is seeded with real client runs, then
// pre-encoded optimize/update/artifact/stats requests are replayed open
// loop at a fixed rate, interleaved with closed-loop saturation batches,
// all over at most nproc connections. No workload executes during the timed
// phases.
func runServe(cfg config, rep *report) error {
	var pool *servePool
	srv, setupTimes, err := timedSetups(func() (*collabd, error) {
		d, err := startCollabd(cfg.bin, cfg.path("collabd-serve.log"))
		if err != nil {
			return nil, err
		}
		if pool, err = seedServe(d.url, cfg.seed); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	conns := runtime.NumCPU()
	rng := rand.New(rand.NewSource(cfg.seed))
	warmN := int(serveRate * serveWarmup.Seconds())
	segN := int(serveRate * 0.6 * float64(cfg.seconds) / serveBatches)
	fixed := pool.draw(rng, warmN+segN*serveBatches)
	per := serveBatchPerSecond * cfg.seconds
	batch := pool.draw(rng, per*serveBatches)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	before, err := take(srv, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.sample()
	}
	// The fixed-rate phase runs in serveBatches segments, each followed by
	// a saturation batch, so the batches sample the whole run rather than
	// one stretch of it.
	rss := srv.sampleRSS()
	var outs, satOuts []outcome
	var satWalls []float64
	var cpuAtRate float64
	for b, from := 0, 0; b < serveBatches; b++ {
		to := warmN + (b+1)*segN
		p0, err := srv.proc()
		if err != nil {
			return err
		}
		o, _ := schedule(srv.url, fixed[from:to], time.Second/serveRate, conns)
		p1, err := srv.proc()
		if err != nil {
			return err
		}
		outs = append(outs, o...)
		cpuAtRate += p1.cpuSec - p0.cpuSec
		from = to
		o, wall := schedule(srv.url, batch[b*per:(b+1)*per], 0, conns)
		satOuts = append(satOuts, o...)
		satWalls = append(satWalls, wall.Seconds())
	}
	rssMB := rss.finish()
	var util float64
	var utilN int
	if tr != nil {
		util, utilN = tr.finish()
	}
	after, err := take(srv, tr)
	if err != nil {
		return err
	}

	m := e2e{
		setup:       setupTimes,
		rss:         rssMB,
		peakMB:      after.proc.hwmMB,
		passes:      satWalls,
		passWhat:    fmt.Sprintf("saturation batch of %d requests over %d connections, no think time", per, conns),
		ops:         &samples{},
		opsWhat:     fmt.Sprintf("any request at %d/s, from its due time", serveRate),
		optimize:    &samples{},
		update:      &samples{},
		artifact:    &samples{},
		routeWhat:   fmt.Sprintf("at %d/s, from due time", serveRate),
		cpuWhat:     fmt.Sprintf("at %d/s incl. %s warm-up", serveRate, serveWarmup),
		qualityWhat: "mean quality of warmstart donors proposed",
	}
	byRoute := map[string]*samples{"optimize": m.optimize, "update": m.update, "artifact": m.artifact, "stats": {}}
	gen := &genReport{}
	for i, o := range outs {
		rep.attempted++
		if o.err != nil {
			rep.opFailed("fixed-rate request %d (%s): %v", i, fixed[i].route, o.err)
		}
		if i < warmN {
			continue
		}
		gen.observe(o)
		for _, s := range []*samples{m.ops, byRoute[fixed[i].route]} {
			if o.err != nil {
				s.fail()
			} else {
				s.add(o.latency)
			}
		}
	}
	for i, o := range satOuts {
		rep.attempted++
		if o.err != nil {
			rep.opFailed("saturation request %d (%s): %v", i, batch[i].route, o.err)
		}
	}
	m.cpuSec = cpuAtRate
	m.requests = float64(len(outs))
	m.quality = pool.qualities

	fmt.Println("end-to-end:")
	m.emit(rep)
	pass := median(satWalls)
	info("capacity_rps", "1/s", float64(per)/pass,
		fmt.Sprintf("%d requests / median batch %.3f s over %d connections", per, pass, conns))
	late := summarize(gen.late.ms)
	info("gen.late_tail_ms", "ms", late.Tail, fmt.Sprintf("timer lateness at p%.1f, n=%d; conn wait %.3fs total",
		late.TailPct, late.N, gen.connWait.Seconds()))
	if tr != nil {
		fmt.Println("per-layer (fixed-rate phase and saturation batches):")
		emitLayers(rep, layerInputs{before: before, after: after, gen: gen, util: util, utilN: utilN})
	}
	recordPass(cfg, rep, pass)
	return nil
}

// genReport is the generator's own account: lateness and connection wait.
type genReport struct {
	late     samples
	connWait time.Duration
}

func (g *genReport) observe(o outcome) {
	g.late.add(o.late)
	g.connWait += o.connWait
}

// seedServe fills a fresh server with real client runs — Kaggle pass 1 at
// scale 1 and an OpenML prefix — and builds the replay pool from the same
// DAGs.
func seedServe(base string, seed int64) (*servePool, error) {
	rc := remote.NewClient(base, cost.Remote())
	client := core.NewClient(rc)
	run := func(w *graph.DAG) error {
		if _, err := client.Run(w); err != nil {
			return err
		}
		return rc.Err()
	}
	pool := &servePool{}
	var executed []*graph.DAG
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: seed})
	for _, wl := range kaggle.AllWorkloads() {
		w := wl.Build(src)
		if err := run(w); err != nil {
			return nil, fmt.Errorf("seed W%d: %w", wl.ID, err)
		}
		executed = append(executed, w)
		if err := pool.addOptimize(wl.Build(src)); err != nil {
			return nil, err
		}
	}
	frame, pipes := openmlInputs(seed, serveSeedPipelines+serveFresh)
	for i, p := range pipes[:serveSeedPipelines] {
		w := p.Build(frame)
		if err := run(w); err != nil {
			return nil, fmt.Errorf("seed pipeline %d: %w", i, err)
		}
		executed = append(executed, w)
	}
	for i, p := range pipes[serveSeedPipelines:] {
		w := p.Build(frame)
		if _, err := core.Execute(w, nil, nil); err != nil {
			return nil, fmt.Errorf("fresh pipeline %d: %w", i, err)
		}
		if err := pool.addUpdate(w); err != nil {
			return nil, err
		}
		if err := pool.addOptimize(p.Build(frame)); err != nil {
			return nil, err
		}
	}
	// Seen pipelines as optimize bodies too, one per fresh one, so half
	// the OpenML optimizes can reuse and half search donors.
	for _, p := range pipes[:serveFresh] {
		if err := pool.addOptimize(p.Build(frame)); err != nil {
			return nil, err
		}
	}
	for _, w := range executed[:len(kaggle.AllWorkloads())+serveFresh] {
		if err := pool.addUpdate(w); err != nil {
			return nil, err
		}
	}
	if err := pool.findTargets(base, executed[:len(kaggle.AllWorkloads())]); err != nil {
		return nil, err
	}
	return pool, nil
}

func (p *servePool) addOptimize(w *graph.DAG) error {
	w.MarkComputed()
	body, err := encode(&remote.OptimizeRequest{Nodes: remote.ToWire(w)})
	p.optimize = append(p.optimize, body)
	return err
}

func (p *servePool) addUpdate(executed *graph.DAG) error {
	body, err := encode(&remote.UpdateRequest{Nodes: remote.ToWire(executed)})
	p.update = append(p.update, body)
	return err
}

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// artifactEnvelope mirrors the body of GET /v1/artifact.
type artifactEnvelope struct{ Content graph.Artifact }

// findTargets picks the artifact GET targets from the Kaggle DAGs, whose
// structure and frame sizes do not depend on the seed: frames evenly
// spaced by size rank and small artifacts evenly spaced by ID, skipping
// any the server did not materialize. Each is checked against the
// client's own content.
func (p *servePool) findTargets(base string, executed []*graph.DAG) error {
	content := map[string]graph.Artifact{}
	var frames, small []string
	for _, w := range executed {
		for _, n := range w.Nodes() {
			if _, dup := content[n.ID]; dup || n.Op == nil || n.Content == nil {
				continue
			}
			content[n.ID] = n.Content
			if _, ok := n.Content.(*graph.DatasetArtifact); ok {
				frames = append(frames, n.ID)
			} else {
				small = append(small, n.ID)
			}
		}
	}
	sort.Slice(frames, func(i, j int) bool {
		si, sj := content[frames[i]].SizeBytes(), content[frames[j]].SizeBytes()
		return si < sj || (si == sj && frames[i] < frames[j])
	})
	sort.Strings(small)
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	for _, class := range []struct {
		ids  []string
		want int
	}{{frames, serveFrames}, {small, serveSmall}} {
		got := 0
		stride := max(1, len(class.ids)/class.want)
		for off := 0; off < stride && got < class.want; off++ {
			for i := off; i < len(class.ids) && got < class.want; i += stride {
				id := class.ids[i]
				r := request{route: "artifact", path: "/v1/artifact?id=" + url.QueryEscape(id)}
				body, err := send(hc, base, &r)
				if err != nil {
					continue // not materialized
				}
				t := &artifactTarget{id: id, want: digest(content[id]), seen: map[[32]byte]bool{}}
				if err := t.check(body); err != nil {
					return fmt.Errorf("seeded %w", err)
				}
				p.targets = append(p.targets, t)
				got++
			}
		}
		if got < class.want {
			return fmt.Errorf("seeding left %d servable artifacts of a class, want %d", got, class.want)
		}
	}
	return nil
}

// check decodes an artifact body and compares it with the seeded content.
func (t *artifactTarget) check(body []byte) error {
	sum := sha256.Sum256(body)
	t.mu.Lock()
	ok := t.seen[sum]
	t.mu.Unlock()
	if ok {
		return nil
	}
	var env artifactEnvelope
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		return fmt.Errorf("artifact %s: decode: %w", t.id, err)
	}
	if env.Content == nil || digest(env.Content) != t.want {
		return fmt.Errorf("artifact %s: content differs from what was seeded", t.id)
	}
	t.mu.Lock()
	t.seen[sum] = true
	t.mu.Unlock()
	return nil
}

// draw builds n requests with the 4:3:2:1 mix, bodies picked by rng.
func (p *servePool) draw(rng *rand.Rand, n int) []request {
	out := make([]request, n)
	for i := range out {
		switch route := serveMix[rng.Intn(len(serveMix))]; route {
		case "optimize":
			out[i] = request{route: route, path: "/v1/optimize",
				body: p.optimize[rng.Intn(len(p.optimize))], check: p.checkOptimize}
		case "update":
			out[i] = request{route: route, path: "/v1/update",
				body: p.update[rng.Intn(len(p.update))], check: checkUpdate}
		case "artifact":
			t := p.targets[rng.Intn(len(p.targets))]
			out[i] = request{route: route, path: "/v1/artifact?id=" + url.QueryEscape(t.id), check: t.check}
		default:
			out[i] = request{route: route, path: "/v1/stats", check: checkStats}
		}
	}
	return out
}

func (p *servePool) checkOptimize(body []byte) error {
	var resp remote.OptimizeResponse
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
		return fmt.Errorf("optimize: decode: %w", err)
	}
	p.mu.Lock()
	for _, c := range resp.Warmstarts {
		p.qualities = append(p.qualities, c.Quality)
	}
	p.mu.Unlock()
	return nil
}

func checkUpdate(body []byte) error {
	var resp remote.UpdateResponse
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
		return fmt.Errorf("update: decode: %w", err)
	}
	return nil
}

func checkStats(body []byte) error {
	var st remote.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("stats: decode: %w", err)
	}
	return nil
}

// digest fingerprints an artifact's content: every column's identity and
// cells for datasets, value and text for aggregates, and kind, quality,
// features and size for models.
func digest(a graph.Artifact) [32]byte {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) { word(uint64(len(s))); h.Write([]byte(s)) }
	switch v := a.(type) {
	case *graph.DatasetArtifact:
		str("dataset")
		for _, c := range v.Frame.Columns() {
			str(c.ID)
			str(c.Name)
			word(uint64(c.Type))
			word(uint64(c.Len()))
			for i := 0; i < c.Len(); i++ {
				switch c.Type {
				case data.Float64:
					word(math.Float64bits(c.Floats[i]))
				case data.Int64:
					word(uint64(c.Ints[i]))
				default:
					str(c.StringAt(i))
				}
			}
		}
	case *graph.AggregateArtifact:
		str("aggregate")
		word(math.Float64bits(v.Value))
		str(v.Text)
	case *graph.ModelArtifact:
		str(fmt.Sprintf("model %T", v.Model))
		word(math.Float64bits(v.Quality))
		for _, f := range v.Features {
			str(f)
		}
		word(uint64(v.SizeBytes()))
	case *graph.TransformerArtifact:
		str(fmt.Sprintf("transformer %T", v.Transformer))
		word(uint64(v.SizeBytes()))
	default:
		str(fmt.Sprintf("%T", a))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
