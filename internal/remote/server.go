package remote

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Handler wraps a core.Server with the HTTP protocol. Mount it on any mux.
//
// Every request is tagged with a request ID — the client-sent
// X-Collab-Request header when present, a freshly minted ID otherwise —
// which is echoed on the response header, passed to the server's
// correlated Optimize/Update variants, and attached to the per-request
// access log line (when a logger is configured).
type Handler struct {
	srv *core.Server
	mux *http.ServeMux
	log *slog.Logger
	// Serving telemetry (middleware.go): per-route metric families, the
	// flight-recorder feed, and the slow-request warning. instrument
	// defaults to on; metrics stays nil when it is switched off.
	instrument bool
	metrics    *httpMetrics
	slowWarn   time.Duration
	readyCheck func() error
	// flight is the request flight recorder behind /v1/requests and
	// clients the per-client attribution table behind /v1/clients; the
	// middleware feeds both one finished request at a time. Default-on
	// with small caps; nil disables either.
	flight  *obs.FlightRecorder
	clients *obs.ClientTable
}

// HandlerOption configures the HTTP façade.
type HandlerOption func(*Handler)

// WithHandlerLogger attaches a structured access logger: one slog line per
// request with method, path, status, duration, and request ID. Nil (the
// default) disables access logging.
func WithHandlerLogger(l *slog.Logger) HandlerOption {
	return func(h *Handler) { h.log = l }
}

// WithPprof mounts net/http/pprof's profiling handlers under /debug/pprof/
// — CPU, heap, goroutine, and friends — for debugging a live server.
// Off by default: the endpoints expose internals and cost CPU when
// scraped, so deployments opt in (collabd's -pprof flag).
func WithPprof(enabled bool) HandlerOption {
	return func(h *Handler) {
		if !enabled {
			return
		}
		h.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		h.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		h.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		h.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		h.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// NewHandler builds the HTTP façade over a server.
func NewHandler(srv *core.Server, opts ...HandlerOption) *Handler {
	h := &Handler{
		srv:        srv,
		mux:        http.NewServeMux(),
		instrument: true,
		flight:     obs.NewFlightRecorder(0),
		clients:    obs.NewClientTable(0),
	}
	h.mux.HandleFunc("POST /v1/optimize", h.optimize)
	h.mux.HandleFunc("POST /v1/update", h.update)
	h.mux.HandleFunc("GET /v1/artifact", h.getArtifact)
	h.mux.HandleFunc("POST /v1/artifact", h.putArtifact)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.Handle("GET /metrics", srv.Metrics().Handler())
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /readyz", h.readyz)
	h.registerDebugRoutes()
	for _, o := range opts {
		o(h)
	}
	reg := srv.Metrics()
	if h.instrument {
		h.metrics = newHTTPMetrics(reg)
	}
	if h.flight != nil {
		reg.GaugeFunc("collab_flight_requests", "request summaries retained by the flight recorder",
			func() float64 { return float64(h.flight.Len()) })
		reg.GaugeFunc("collab_flight_capacity", "flight recorder ring capacity",
			func() float64 { return float64(h.flight.Cap()) })
	}
	if h.clients != nil {
		// The cap plus one overflow bucket is the ceiling.
		reg.GaugeFunc("collab_clients_tracked", "distinct clients in the attribution table",
			func() float64 { return float64(h.clients.Len()) })
	}
	return h
}

// scopeKey keys the request's one context value: the *obs.RequestSummary
// that ServeHTTP opens with the request ID, the optimize/update/artifact
// handlers fill with the optimizer facts core returns (plan shape, plan
// time, lock wait), and the middleware completes with the transport facts
// and records.
type scopeKey struct{}

// scope returns the request's summary in progress. The mux is reachable
// only through ServeHTTP, which always sets it.
func scope(r *http.Request) *obs.RequestSummary {
	return r.Context().Value(scopeKey{}).(*obs.RequestSummary)
}

// statusWriter captures the response status and body size for the access
// log, the serving metrics, and the flight recorder.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// ServeHTTP implements http.Handler: it resolves the request ID, echoes it
// on the response, and — unless instrumentation is disabled — measures the
// request into the serving metrics and the flight recorder
// (serveInstrumented in middleware.go).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get(obs.RequestIDHeader)
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, rid)
	sc := &obs.RequestSummary{RequestID: rid}
	r = r.WithContext(context.WithValue(r.Context(), scopeKey{}, sc))
	if h.instrument {
		h.serveInstrumented(w, r, sc)
		return
	}
	if h.log == nil {
		h.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	timer := obs.StartTimer()
	h.mux.ServeHTTP(sw, r)
	h.log.Info("http",
		slog.String(obs.RequestIDKey, rid),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("elapsed", timer.Elapsed()))
}

func (h *Handler) optimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("decode: %v", err), http.StatusBadRequest)
		return
	}
	dag := FromWire(req.Nodes)
	sc := scope(r)
	opt := h.srv.OptimizeReq(dag, sc.RequestID)
	sc.Vertices, sc.Reused = dag.Len(), len(opt.Plan.Reuse)
	sc.Computes, sc.Warmstarts = opt.Plan.Stats.Computes, len(opt.Warmstarts)
	sc.PlanNanos, sc.LockWaitNanos = opt.Overhead.Nanoseconds(), opt.LockWait.Nanoseconds()
	resp := OptimizeResponse{Warmstarts: opt.Warmstarts, Overhead: opt.Overhead}
	for id := range opt.Plan.Reuse {
		resp.ReuseIDs = append(resp.ReuseIDs, id)
	}
	// Map iteration order is random; sort so responses are byte-stable.
	sort.Strings(resp.ReuseIDs)
	if len(opt.Plan.PredictedLoad) > 0 {
		resp.PredictedLoadSec = make([]float64, len(resp.ReuseIDs))
		for i, id := range resp.ReuseIDs {
			resp.PredictedLoadSec[i] = opt.Plan.PredictedLoad[id]
		}
	}
	writeGob(w, &resp)
}

func (h *Handler) update(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("decode: %v", err), http.StatusBadRequest)
		return
	}
	dag := FromWire(req.Nodes)
	sc := scope(r)
	// The run summary must land before the update: the server folds it into
	// the scorecard it builds while folding the executed DAG into the EG.
	if req.Run != nil {
		h.srv.ReportRun(*req.Run, sc.RequestID)
	}
	// The optimize phase of the same run recorded its own summary already
	// (separate HTTP request), so the update carries only what it knows:
	// how many vertices merged and how many the client loaded from EG.
	sc.Vertices = dag.Len()
	for _, n := range dag.Nodes() {
		if n.LoadedFromEG {
			sc.Reused++
		}
	}
	want, lockWait := h.srv.UpdateMetaReq(dag, sc.RequestID)
	sc.LockWaitNanos = lockWait.Nanoseconds()
	// Record column lineage (dedup accounting) and model kinds (warmstart
	// donor matching), which travel outside the artifact content.
	for _, wn := range req.Nodes {
		if len(wn.Columns) > 0 {
			h.srv.EG.RecordColumns(wn.ID, wn.Columns, wn.ColSizes)
		}
		if wn.TrainedKind != "" {
			h.srv.EG.RecordMeta(wn.ID, "model", wn.TrainedKind)
		}
	}
	writeGob(w, &UpdateResponse{WantContent: want})
}

func (h *Handler) getArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	// Peek, don't Get: serving a collaborator must not promote the artifact
	// into the memory tier or disturb the LRU order — a cold artifact
	// streams straight from the disk tier.
	content, tier := h.srv.PeekArtifact(id)
	if content == nil {
		http.Error(w, "artifact not found", http.StatusNotFound)
		return
	}
	w.Header().Set(TierHeader, tier.String())
	env := artifactEnvelope{Content: content}
	writeGob(w, &env)
}

func (h *Handler) putArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	var env artifactEnvelope
	if err := gob.NewDecoder(r.Body).Decode(&env); err != nil {
		http.Error(w, fmt.Sprintf("decode: %v", err), http.StatusBadRequest)
		return
	}
	if env.Content == nil {
		http.Error(w, "empty artifact", http.StatusBadRequest)
		return
	}
	sc := scope(r)
	lockWait, err := h.srv.PutArtifactReq(id, env.Content, sc.RequestID)
	sc.LockWaitNanos = lockWait.Nanoseconds()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	plan, mat := h.srv.Timings()
	st := Stats{
		Vertices:           h.srv.EG.Len(),
		Materialized:       len(h.srv.EG.MaterializedIDs()),
		PhysicalBytes:      h.srv.Store.PhysicalBytes(),
		LogicalBytes:       h.srv.Store.LogicalBytes(),
		MemoryBytes:        h.srv.Store.MemoryBytes(),
		DiskBytes:          h.srv.Store.DiskBytes(),
		PlanTime:           plan,
		MatTime:            mat,
		OptimizeCount:      h.srv.OptimizeCount(),
		UpdateCount:        h.srv.UpdateCount(),
		ReusePlanned:       h.srv.ReusePlanned(),
		WarmstartsProposed: h.srv.WarmstartsProposed(),
		UptimeSeconds:      h.srv.UptimeSeconds(),
		LockWaitSec:        h.srv.LockWaitSeconds(),
		LockHoldSec:        h.srv.LockHoldSeconds(),
		StoreLockWaitSec:   h.srv.StoreLockWaitSeconds(),
		Pool:               parallel.ReadStats(),
	}
	st.MemoryArtifacts, st.DiskArtifacts = h.srv.Store.TierCounts()
	st.Version, st.GoVersion = h.srv.BuildInfo()
	st.PlanPrunedOffPath, st.PlanPrunedByCost, st.PlanPrunedNotMaterialized = h.srv.PlanPruned()
	if led := h.srv.ArtifactLedger(); led.Enabled() {
		st.ArtifactsTracked, st.ArtifactSavedSec, st.ArtifactRentSec, st.ArtifactNetSec = led.Totals()
	}
	if c := h.srv.Calibration(); c != nil {
		st.Runs = c.Runs()
		total, last := c.WallSeconds()
		st.RunWallTime = secondsToDuration(total)
		st.LastRunWallTime = secondsToDuration(last)
		for _, tier := range c.LoadTiers() {
			st.CalibLoadObs += c.LoadObservations(tier)
		}
		st.CalibComputeObs = c.ComputeObservations()
		st.EstimatedSavedSec = c.EstimatedSavedSeconds()
		st.LastSpeedup = c.LastSpeedup()
		st.MaxDriftFamily, st.MaxDrift = c.MaxDrift()
		st.LastRun = c.LastScorecard()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// artifactEnvelope wraps the Artifact interface for gob transport.
type artifactEnvelope struct {
	Content graph.Artifact
}

func writeGob(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
