package remote

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
)

// This file is the serving-telemetry middleware: every request through
// Handler.ServeHTTP is measured into per-route metric families on the
// server's obs.Registry and summarized into the flight recorder
// (GET /v1/requests). Instrumentation is on by default and switchable off
// with WithInstrumentation(false); the disabled path is the bare mux
// dispatch plus request-ID plumbing, pinned ≈ free by
// BenchmarkHandlerInstrumentationOverhead.

// routeLabels is the fixed route vocabulary for metric labels and flight
// summaries. Unknown paths collapse into "other" so scraping an arbitrary
// URL cannot mint unbounded metric families.
var routeLabels = []string{
	"/v1/optimize",
	"/v1/update",
	"/v1/artifact",
	"/v1/stats",
	"/v1/calibration",
	"/v1/trace",
	"/v1/explain",
	"/v1/requests",
	"/v1/clients",
	"/v1/critpath",
	"/v1/artifacts",
	"/metrics",
	"/healthz",
	"/readyz",
	"other",
}

// routeLabel maps a request path onto the fixed vocabulary.
func routeLabel(path string) string {
	for _, r := range routeLabels {
		if r != "other" && path == r {
			return r
		}
	}
	return "other"
}

// statusClasses is the response-code label vocabulary; statusClass clamps
// real codes onto it.
var statusClasses = [numStatusClasses]string{"2xx", "3xx", "4xx", "5xx"}

const numStatusClasses = 4

func statusClass(code int) int {
	idx := code/100 - 2
	if idx < 0 {
		idx = 0
	}
	if idx > 3 {
		idx = 3
	}
	return idx
}

// routeInstruments bundles one route's serving metrics, pre-registered at
// handler construction so the per-request path never touches the
// registry mutex.
type routeInstruments struct {
	seconds   *obs.Histogram
	inflight  *obs.Gauge
	byClass   [numStatusClasses]*obs.Counter
	reqBytes  *obs.Counter
	respBytes *obs.Counter
}

// httpMetrics holds the per-route instruments keyed by route label.
type httpMetrics struct {
	routes map[string]*routeInstruments
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	m := &httpMetrics{routes: make(map[string]*routeInstruments, len(routeLabels))}
	for _, route := range routeLabels {
		ri := &routeInstruments{
			seconds: reg.Histogram(obs.Labeled("collab_http_request_seconds", "route", route),
				"end-to-end request handling latency by route", nil),
			inflight: reg.Gauge(obs.Labeled("collab_http_inflight", "route", route),
				"requests currently being handled by route"),
			reqBytes: reg.Counter(obs.Labeled("collab_http_request_bytes_total", "route", route),
				"request body bytes read by route"),
			respBytes: reg.Counter(obs.Labeled("collab_http_response_bytes_total", "route", route),
				"response body bytes written by route"),
		}
		for i, class := range statusClasses {
			ri.byClass[i] = reg.Counter(
				obs.Labeled("collab_http_requests_total", "route", route, "code", class),
				"requests served by route and status class")
		}
		m.routes[route] = ri
	}
	return m
}

// clientLabel resolves the caller's identity for per-client attribution:
// the sanitized X-Collab-Client header when present, otherwise the remote
// address host (stable per collaborator machine), otherwise "unknown". The
// attribution table bounds distinct identities itself, so an adversarially
// rotating label cannot grow it past its cap.
func clientLabel(r *http.Request) string {
	if c := obs.SanitizeClientID(r.Header.Get(obs.ClientIDHeader)); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return obs.SanitizeClientID(host)
	}
	if c := obs.SanitizeClientID(r.RemoteAddr); c != "" {
		return c
	}
	return "unknown"
}

// countingReader counts request body bytes actually read by the handler
// (Content-Length lies for chunked encodings and is absent on GETs).
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// WithInstrumentation toggles the serving-telemetry middleware (metrics,
// flight recording, slow-request warnings). On by default; off reduces
// ServeHTTP to request-ID plumbing plus access logging.
func WithInstrumentation(enabled bool) HandlerOption {
	return func(h *Handler) { h.instrument = enabled }
}

// WithFlightRecorder replaces the default request flight recorder (a
// DefaultFlightCap-entry ring) behind GET /v1/requests. Pass a larger
// ring to keep more history, or nil to disable recording entirely.
func WithFlightRecorder(f *obs.FlightRecorder) HandlerOption {
	return func(h *Handler) { h.flight = f }
}

// WithClientTable replaces the default per-client attribution table (a
// DefaultClientCap-entry table) behind GET /v1/clients. Pass a larger
// table to track more distinct clients, or nil to disable attribution
// entirely.
func WithClientTable(t *obs.ClientTable) HandlerOption {
	return func(h *Handler) { h.clients = t }
}

// WithSlowRequestWarn logs a slog warning for any request slower than
// threshold (0, the default, disables the warning). Requires a handler
// logger and instrumentation to be active.
func WithSlowRequestWarn(threshold time.Duration) HandlerOption {
	return func(h *Handler) { h.slowWarn = threshold }
}

// WithReadyCheck overrides the readiness probe behind GET /readyz. The
// default asks the core server (store attached, cost profile loaded); a
// deployment wanting stricter gating (warmed caches, restored snapshots)
// installs its own check. The function must be safe for concurrent use;
// nil restores the default.
func WithReadyCheck(check func() error) HandlerOption {
	return func(h *Handler) { h.readyCheck = check }
}

// healthz is the liveness probe: the process is up and the handler
// reachable. Always 200 — readiness is /readyz's job.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyz is the readiness probe: 200 once the server can serve traffic
// (store recovered, profile loaded), 503 with the reason otherwise.
func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	check := h.readyCheck
	if check == nil {
		check = h.srv.Ready
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := check(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: %v\n", err)
		return
	}
	fmt.Fprintln(w, "ready")
}

// serveInstrumented is the measured request path: inflight gauge up,
// counting body reader in, dispatch, then histogram/counter updates, the
// flight-recorder summary, the access log line, and the slow-request
// warning.
func (h *Handler) serveInstrumented(w http.ResponseWriter, r *http.Request, sc *obs.RequestSummary) {
	route := routeLabel(r.URL.Path)
	ri := h.metrics.routes[route]
	cr := &countingReader{rc: r.Body}
	r.Body = cr
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	ri.inflight.Add(1)
	timer := obs.StartTimer()
	h.mux.ServeHTTP(sw, r)
	elapsed := timer.Elapsed()
	ri.inflight.Add(-1)
	ri.seconds.Observe(elapsed.Seconds())
	ri.byClass[statusClass(sw.status)].Inc()
	ri.reqBytes.Add(cr.n)
	ri.respBytes.Add(sw.bytes)
	// The handler already put the optimizer facts (plan time, lock wait)
	// on the scope, so the flight recorder and the per-client table both
	// see the enriched view, not just the transport facts.
	sc.Method = r.Method
	sc.Route = route
	sc.Status = sw.status
	sc.StartUnixNano = timer.StartedAt().UnixNano()
	sc.WallNanos = elapsed.Nanoseconds()
	sc.BytesIn = cr.n
	sc.BytesOut = sw.bytes
	h.flight.Record(*sc)
	h.clients.Observe(clientLabel(r), *sc)
	if h.log != nil {
		h.log.Info("http",
			slog.String(obs.RequestIDKey, sc.RequestID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("elapsed", elapsed))
		if h.slowWarn > 0 && elapsed > h.slowWarn {
			h.log.Warn("slow request",
				slog.String(obs.RequestIDKey, sc.RequestID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("elapsed", elapsed),
				slog.Duration("threshold", h.slowWarn))
		}
	}
}
