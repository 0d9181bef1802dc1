package obs

import (
	"encoding/json"
	"io"
	"time"
)

// RequestSummary is one completed request as retained by the flight
// recorder: transport facts filled by the HTTP middleware plus optimizer
// enrichment contributed by the optimize/update paths. Field order is the
// JSON contract — WriteJSON output is byte-stable for a fixed ring state,
// and a golden test pins it.
type RequestSummary struct {
	Seq       int64  `json:"seq"`
	RequestID string `json:"request_id"`
	Method    string `json:"method"`
	Route     string `json:"route"`
	Status    int    `json:"status"`
	// StartUnixNano is the arrival wall-clock time; WallNanos the
	// end-to-end handling time (integer nanoseconds keep the JSON exact).
	StartUnixNano int64 `json:"start_unix_nano"`
	WallNanos     int64 `json:"wall_ns"`
	BytesIn       int64 `json:"bytes_in"`
	BytesOut      int64 `json:"bytes_out"`
	// Optimizer enrichment, filled by the optimize/update/artifact
	// handlers from the values core returns; all zero for plain transport
	// requests.
	Vertices   int   `json:"vertices,omitempty"`
	Reused     int   `json:"reuse,omitempty"`
	Computes   int   `json:"computes,omitempty"`
	Warmstarts int   `json:"warmstarts,omitempty"`
	PlanNanos  int64 `json:"plan_ns,omitempty"`
	// LockWaitNanos is time the request spent queued on the server mutex
	// before its section (optimize/update/materialize) could run.
	LockWaitNanos int64 `json:"lock_wait_ns,omitempty"`
}

// RequestFilter selects summaries from the flight recorder. The zero
// value selects everything.
type RequestFilter struct {
	// Route keeps only summaries with this exact route ("" keeps all).
	Route string
	// MinWall keeps only summaries at least this slow.
	MinWall time.Duration
	// Limit keeps only the most recent N matches (0 keeps all). Output
	// order stays oldest-first regardless.
	Limit int
}

// FlightRecorder is a bounded, race-safe ring of recent request
// summaries — the serving tier's black box. The HTTP middleware records
// one summary per finished request, already carrying the optimizer facts
// the handler collected in the request's scope. A nil recorder records
// nothing and serves empty snapshots, so callers hold it without guards.
type FlightRecorder struct {
	ring *Ring[RequestSummary]
}

// DefaultFlightCap bounds a NewFlightRecorder(0) ring.
const DefaultFlightCap = 256

// NewFlightRecorder returns a recorder retaining the last n summaries
// (n <= 0 selects DefaultFlightCap).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightCap
	}
	return &FlightRecorder{ring: NewRing(n, func(s *RequestSummary, seq int64) { s.Seq = seq })}
}

// Enabled reports whether the recorder is non-nil.
func (f *FlightRecorder) Enabled() bool { return f != nil }

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return f.ring.Cap()
}

// Len returns the number of retained summaries.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return f.ring.Len()
}

// Record stamps the summary's sequence number and appends it to the ring,
// evicting the oldest entry once full.
func (f *FlightRecorder) Record(s RequestSummary) {
	if f == nil {
		return
	}
	f.ring.Push(s)
}

// Snapshot returns the retained summaries matching the filter, oldest
// first. The result is a copy — safe to hold across further recording.
func (f *FlightRecorder) Snapshot(filter RequestFilter) []RequestSummary {
	if f == nil {
		return nil
	}
	ordered := f.ring.Snapshot()
	matched := ordered[:0]
	for _, s := range ordered {
		if filter.Route != "" && s.Route != filter.Route {
			continue
		}
		if filter.MinWall > 0 && s.WallNanos < filter.MinWall.Nanoseconds() {
			continue
		}
		matched = append(matched, s)
	}
	if filter.Limit > 0 && len(matched) > filter.Limit {
		matched = matched[len(matched)-filter.Limit:]
	}
	return matched
}

// flightExport is the JSON envelope of WriteJSON / GET /v1/requests.
type flightExport struct {
	Count    int              `json:"count"`
	Requests []RequestSummary `json:"requests"`
}

// WriteJSON renders the filtered snapshot as byte-stable JSON: an object
// with the match count and the summaries oldest-first.
func (f *FlightRecorder) WriteJSON(w io.Writer, filter RequestFilter) error {
	reqs := f.Snapshot(filter)
	if reqs == nil {
		reqs = []RequestSummary{}
	}
	blob, err := json.MarshalIndent(flightExport{Count: len(reqs), Requests: reqs}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}
