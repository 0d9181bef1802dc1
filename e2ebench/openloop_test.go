package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers every request at once except the stallAt-th, which
// it holds for stall. It counts the connections clients open.
func stubServer(t *testing.T, stallAt int64, stall time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n, conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

func gets(n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{route: "stats", path: "/"}
	}
	return reqs
}

// A stall must show in the latency of the requests scheduled behind it:
// they are timed from their due instant, not from when they were sent.
func TestScheduleChargesStallToSuccessors(t *testing.T) {
	const (
		stallAt  = 5
		stall    = 200 * time.Millisecond
		interval = 10 * time.Millisecond
	)
	srv, conns := stubServer(t, stallAt, stall)
	outs, _ := schedule(srv.URL, gets(30), interval, 1)
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
	}
	if outs[stallAt].latency < stall {
		t.Fatalf("stalled request latency %v < stall %v", outs[stallAt].latency, stall)
	}
	// Request stallAt+k was due k intervals after the stalled one, so it
	// waits at least stall − k×interval for the connection.
	for k := 1; k <= 10; k++ {
		o := outs[stallAt+k]
		floor := stall - time.Duration(k)*interval
		if o.latency < floor {
			t.Errorf("request %d: latency %v hides the stall (want ≥ %v)", stallAt+k, o.latency, floor)
		}
		if o.connWait < floor-interval {
			t.Errorf("request %d: connection wait %v, want ≥ %v", stallAt+k, o.connWait, floor-interval)
		}
	}
	// Long after the stall the schedule has caught up again.
	if last := outs[len(outs)-1]; last.latency > 50*time.Millisecond {
		t.Errorf("last request latency %v: schedule never caught up", last.latency)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("opened %d connections, cap is 1", got)
	}
}

// However many requests are due at once, no more than conns connections
// are opened.
func TestScheduleCapsConnections(t *testing.T) {
	srv, conns := stubServer(t, -1, 0)
	for _, interval := range []time.Duration{0, time.Millisecond} {
		outs, _ := schedule(srv.URL, gets(200), interval, 2)
		for i, o := range outs {
			if o.err != nil {
				t.Fatalf("request %d: %v", i, o.err)
			}
		}
	}
	if got := conns.Load(); got > 4 {
		t.Fatalf("opened %d connections over two runs capped at 2", got)
	}
}
