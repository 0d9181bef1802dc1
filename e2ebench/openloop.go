package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one pre-built request of a replay schedule.
type request struct {
	route string // optimize | update | artifact | stats
	path  string // path and query
	body  []byte // nil: GET
	// check validates a 200 response body; nil accepts any.
	check func(body []byte) error
}

// outcome is what happened to one scheduled request.
type outcome struct {
	// latency runs from the request's due instant to its last response
	// byte, so waiting for a connection or behind a stalled request counts.
	latency time.Duration
	// late is timer lateness: how long after its due instant the request
	// was sent although a connection was free (the generator's own error).
	late time.Duration
	// connWait is how long the request, once due, waited for a free
	// connection.
	connWait time.Duration
	err      error
}

// schedule drives reqs against base with at most conns connections. With
// interval > 0 it is open loop: request i is due at start + i×interval
// whatever happened before it. With interval 0 every request is due at
// once, so each connection runs closed loop with no think time. Each
// connection is owned by one worker goroutine, so at most conns requests
// are in flight; requests are taken in schedule order. It returns the
// outcomes and the wall time until the last response.
func schedule(base string, reqs []request, interval time.Duration, conns int) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	if interval > 0 {
		// Let the workers start before the first request falls due.
		start = start.Add(5 * time.Millisecond)
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{
				Timeout:   60 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			}
			defer hc.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				picked := time.Now()
				if wait := due.Sub(picked); wait > 0 {
					time.Sleep(wait)
				} else {
					out[i].connWait = -wait
				}
				if sent := time.Now(); sent.After(due) {
					out[i].late = sent.Sub(due) - out[i].connWait
				}
				body, err := send(hc, base, &reqs[i])
				out[i].latency = time.Since(due)
				if err == nil && reqs[i].check != nil {
					err = reqs[i].check(body)
				}
				out[i].err = err
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// send issues one request and reads the whole response.
func send(hc *http.Client, base string, r *request) ([]byte, error) {
	var resp *http.Response
	var err error
	if r.body == nil {
		resp, err = hc.Get(base + r.path)
	} else {
		resp, err = hc.Post(base+r.path, "application/octet-stream", bytes.NewReader(r.body))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d", r.route, r.path, resp.StatusCode)
	}
	return body, nil
}
