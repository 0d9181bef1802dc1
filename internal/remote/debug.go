package remote

import (
	"errors"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/explain"
	"repro/internal/obs"
)

// This file serves the read-only debug surfaces: the recorders that
// explain requests and optimizer decisions. One helper, debugSurface, owns
// what they share — 404 while the surface is off, format negotiation and
// Content-Type, non-negative integer parameters, and 400 for a malformed
// request — so each route only parses its own filters and renders.

// formatContentTypes maps every debug format onto its Content-Type.
var formatContentTypes = map[string]string{
	"json": "application/json",
	"text": "text/plain; charset=utf-8",
	"dot":  "text/vnd.graphviz",
}

// debugError is a request problem a debug route reports before it writes
// anything.
type debugError struct {
	code int
	msg  string
}

func (e *debugError) Error() string { return e.msg }

func badRequest(msg string) error { return &debugError{http.StatusBadRequest, msg} }

func notFound(msg string) error { return &debugError{http.StatusNotFound, msg} }

// debugQuery is a debug request's parameters plus its negotiated format.
type debugQuery struct {
	url.Values
	format string
}

// count parses the non-negative integer parameter name, def when absent.
func (q debugQuery) count(name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, badRequest("bad " + name + " " + v)
	}
	return n, nil
}

// debugSurface is one debug route.
type debugSurface struct {
	// what names the surface in the 404 served while it is off.
	what string
	// on reports whether the surface is enabled; nil means always.
	on func() bool
	// formats lists the accepted format values, the default first.
	formats []string
	// serve validates q and writes the body in q.format. For a bad
	// request it returns a *debugError before writing anything; any other
	// error is a failed write and is dropped.
	serve func(w io.Writer, q debugQuery) error
}

func (d debugSurface) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.on != nil && !d.on() {
		http.Error(w, d.what+" disabled on this server", http.StatusNotFound)
		return
	}
	q := debugQuery{Values: r.URL.Query()}
	q.format = q.Get("format")
	if q.format == "" {
		q.format = d.formats[0]
	}
	if !slices.Contains(d.formats, q.format) {
		http.Error(w, "unknown format "+q.format, http.StatusBadRequest)
		return
	}
	// http.Error replaces this Content-Type when serve rejects the request.
	w.Header().Set("Content-Type", formatContentTypes[q.format])
	var de *debugError
	if err := d.serve(w, q); errors.As(err, &de) {
		http.Error(w, de.msg, de.code)
	}
}

// registerDebugRoutes mounts every debug surface on the handler's mux.
// The on checks read the handler at request time, after options applied.
func (h *Handler) registerDebugRoutes() {
	jsonOnly, jsonText := []string{"json"}, []string{"json", "text"}
	tracing := func() bool { return h.srv.Trace() != nil }
	for path, d := range map[string]debugSurface{
		"/v1/calibration": {formats: jsonText, serve: h.calibration},
		"/v1/trace":       {what: "tracing", on: tracing, formats: jsonOnly, serve: h.trace},
		"/v1/critpath":    {what: "tracing", on: tracing, formats: jsonText, serve: h.critpath},
		"/v1/explain": {what: "explain", on: func() bool { return h.srv.Explain().Enabled() },
			formats: []string{"json", "text", "dot"}, serve: h.explain},
		"/v1/requests": {what: "flight recorder", on: func() bool { return h.flight != nil },
			formats: jsonOnly, serve: h.requests},
		"/v1/clients": {what: "client attribution", on: func() bool { return h.clients != nil },
			formats: jsonText, serve: h.clientTable},
		"/v1/artifacts": {what: "artifact ledger", on: func() bool { return h.srv.ArtifactLedger().Enabled() },
			formats: jsonText, serve: h.artifacts},
	} {
		h.mux.Handle("GET "+path, d)
	}
}

// calibration serves the predicted-vs-measured cost report (byte-stable
// for a given collector state).
func (h *Handler) calibration(w io.Writer, q debugQuery) error {
	report := h.srv.Calibration().Snapshot()
	if q.format == "text" {
		return report.WriteText(w)
	}
	return report.WriteJSON(w)
}

// trace serves the server-side timeline as Chrome trace_event JSON, ready
// for chrome://tracing or Perfetto.
func (h *Handler) trace(w io.Writer, _ debugQuery) error {
	return h.srv.Trace().WriteChrome(w)
}

// critpath analyzes the critical path of the server's trace buffer.
// Parameters:
//
//	request=<id>  restrict to spans tagged with this request ID (404 when
//	              none are buffered: never traced, or evicted)
//	top=5         how many top contributors to list
func (h *Handler) critpath(w io.Writer, q debugQuery) error {
	topK, err := q.count("top", obs.DefaultCritPathTopK)
	if err != nil {
		return err
	}
	request := q.Get("request")
	rep := obs.AnalyzeCritPath(h.srv.Trace().Events(), request, topK)
	if request != "" && rep.Spans == 0 {
		return notFound("no trace spans for request " + request)
	}
	if q.format == "text" {
		rep.WriteText(w)
		return nil
	}
	return rep.WriteJSON(w)
}

// explain serves the most recent decision record. Parameters:
//
//	kind=optimize|update  which record (default optimize; 404 when none)
//	target=eg             with format=dot, render the whole Experiment
//	                      Graph annotated with costs instead of a record
func (h *Handler) explain(w io.Writer, q debugQuery) error {
	if q.Get("target") == "eg" {
		if q.format != "dot" {
			return badRequest("target=eg requires format=dot")
		}
		explain.WriteEGDOT(h.srv.EG, w)
		return nil
	}
	kind := q.Get("kind")
	if kind == "" {
		kind = explain.KindOptimize
	}
	record := h.srv.Explain().Last(kind)
	if record == nil {
		return notFound("no explain record of kind " + kind)
	}
	switch q.format {
	case "text":
		record.WriteText(w)
	case "dot":
		record.WriteDOT(w)
	default:
		return record.WriteJSON(w)
	}
	return nil
}

// requests serves the flight recorder. Parameters:
//
//	route=/v1/optimize  keep only this route
//	min=50ms            keep only requests at least this slow
//	limit=20            keep only the most recent N matches
func (h *Handler) requests(w io.Writer, q debugQuery) error {
	filter := obs.RequestFilter{Route: q.Get("route")}
	if min := q.Get("min"); min != "" {
		d, err := time.ParseDuration(min)
		if err != nil {
			return badRequest("bad min duration: " + err.Error())
		}
		filter.MinWall = d
	}
	var err error
	if filter.Limit, err = q.count("limit", 0); err != nil {
		return err
	}
	return h.flight.WriteJSON(w, filter)
}

// clientTable serves the per-client attribution table.
func (h *Handler) clientTable(w io.Writer, q debugQuery) error {
	if q.format == "text" {
		h.clients.WriteText(w)
		return nil
	}
	return h.clients.WriteJSON(w)
}

// artifacts serves the artifact lifecycle ledger: per-artifact event
// history plus storage economics. Parameters:
//
//	sort=net|saved|rent|reuse|bytes|id  ordering (default net benefit,
//	                                    descending; id ascending)
//	top=10          keep only the first N artifacts after sorting
//	id=<vertex id>  keep only this artifact
//
// The text format adds top-saver/top-waster lists.
func (h *Handler) artifacts(w io.Writer, q debugQuery) error {
	query := obs.ArtifactQuery{SortBy: q.Get("sort"), ID: q.Get("id")}
	if !obs.ValidArtifactSort(query.SortBy) {
		return badRequest("unknown sort " + query.SortBy)
	}
	var err error
	if query.Top, err = q.count("top", 0); err != nil {
		return err
	}
	led := h.srv.ArtifactLedger()
	if q.format == "text" {
		led.WriteText(w, query)
		return nil
	}
	return led.WriteJSON(w, query)
}
