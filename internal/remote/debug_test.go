package remote

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/store"
)

func getStatus(t *testing.T, h http.Handler, path string) int {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w.Code
}

// TestDebugRoutesShareContract pins the contract every GET debug route
// shares: 404 while its surface is off, 400 for an unknown format, and 400
// for a negative or non-numeric count parameter.
func TestDebugRoutesShareContract(t *testing.T) {
	off := NewHandler(core.NewServer(store.New(cost.Memory()), core.WithArtifactLedger(nil)),
		WithFlightRecorder(nil), WithClientTable(nil))
	srv := core.NewServer(store.New(cost.Memory()),
		core.WithTracing(obs.NewTrace()), core.WithExplain(explain.NewRecorder(4)))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	if _, err := core.NewClient(NewClient(ts.URL, cost.Memory())).Run(buildPipeline(testFrame(60, 1))); err != nil {
		t.Fatal(err)
	}
	on := ts.Config.Handler

	cases := []struct {
		path     string
		canBeOff bool   // calibration is always on
		count    string // the route's count parameter, if any
	}{
		{"/v1/requests", true, "limit"},
		{"/v1/clients", true, ""},
		{"/v1/artifacts", true, "top"},
		{"/v1/explain", true, ""},
		{"/v1/trace", true, ""},
		{"/v1/critpath", true, "top"},
		{"/v1/calibration", false, ""},
	}
	for _, c := range cases {
		if got := getStatus(t, on, c.path); got != http.StatusOK {
			t.Errorf("GET %s = %d, want 200 while on", c.path, got)
		}
		if got := getStatus(t, off, c.path); c.canBeOff && got != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 while off", c.path, got)
		}
		if got := getStatus(t, on, c.path+"?format=bogus"); got != http.StatusBadRequest {
			t.Errorf("GET %s?format=bogus = %d, want 400", c.path, got)
		}
		if c.count == "" {
			continue
		}
		for _, v := range []string{"-1", "x"} {
			if got := getStatus(t, on, c.path+"?"+c.count+"="+v); got != http.StatusBadRequest {
				t.Errorf("GET %s?%s=%s = %d, want 400", c.path, c.count, v, got)
			}
		}
	}
}

// gatePlanner is the linear planner holding the server mutex for 20ms on
// its first call, announcing on entered that it holds it.
type gatePlanner struct {
	reuse.Linear
	entered chan struct{}
	once    sync.Once
}

func (p *gatePlanner) Plan(w *graph.DAG, costs reuse.Costs) *reuse.Plan {
	p.once.Do(func() {
		close(p.entered)
		time.Sleep(20 * time.Millisecond)
	})
	return p.Linear.Plan(w, costs)
}

// TestLockWaitReachesRequestsAndClients queues one optimize behind
// another over HTTP: the waiter's lock wait must reach its flight summary
// and its per-client row.
func TestLockWaitReachesRequestsAndClients(t *testing.T) {
	planner := &gatePlanner{entered: make(chan struct{})}
	srv := core.NewServer(store.New(cost.Memory()), core.WithPlanner(planner))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	holder, waiter := NewClient(ts.URL, cost.Memory()), NewClient(ts.URL, cost.Memory())
	holder.SetName("holder")
	waiter.SetName("waiter")

	done := make(chan struct{})
	go func() {
		defer close(done)
		holder.Optimize(buildPipeline(testFrame(60, 1)))
	}()
	<-planner.entered
	waiter.OptimizeReq(buildPipeline(testFrame(60, 2)), "req-waiter")
	<-done

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatal(err)
		}
	}
	const minWait = int64(time.Millisecond)
	var reqs struct {
		Requests []obs.RequestSummary `json:"requests"`
	}
	getJSON("/v1/requests?route=/v1/optimize", &reqs)
	found := false
	for _, s := range reqs.Requests {
		if s.RequestID == "req-waiter" {
			found = true
			if s.LockWaitNanos < minWait {
				t.Errorf("waiter's flight summary lock_wait_ns = %d, want >= 1ms", s.LockWaitNanos)
			}
		}
	}
	if !found {
		t.Fatalf("no flight summary for req-waiter in %+v", reqs.Requests)
	}
	var clients struct {
		Clients []obs.ClientStats `json:"clients"`
	}
	getJSON("/v1/clients", &clients)
	for _, row := range clients.Clients {
		if row.Client == "waiter" {
			if row.LockWaitNS < minWait {
				t.Errorf("waiter's client row lock_wait_ns = %d, want >= 1ms", row.LockWaitNS)
			}
			return
		}
	}
	t.Fatalf("no waiter row in %+v", clients.Clients)
}

// TestCritpathAfterTraceOverflow pins the rolling trace buffer: once a
// capped server trace has overflowed, the newest request is still
// analyzable and the oldest has scrolled out.
func TestCritpathAfterTraceOverflow(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithTracing(obs.NewTraceCapped(64)))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	client := core.NewClient(NewClient(ts.URL, cost.Memory()))
	var first, last string
	for i := 0; i < 40; i++ {
		res, err := client.Run(buildPipeline(testFrame(40, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.RequestID
		}
		last = res.RequestID
	}
	if srv.Trace().Dropped() == 0 {
		t.Fatal("40 runs did not overflow a 64-event trace")
	}
	h := ts.Config.Handler
	if got := getStatus(t, h, "/v1/critpath?request="+last); got != http.StatusOK {
		t.Errorf("critpath for the newest request = %d, want 200", got)
	}
	if got := getStatus(t, h, "/v1/critpath?request="+first); got != http.StatusNotFound {
		t.Errorf("critpath for the evicted first request = %d, want 404", got)
	}
}
