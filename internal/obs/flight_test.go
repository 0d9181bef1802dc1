package obs

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(RequestSummary{Route: "/v1/optimize"})
	if f.Enabled() || f.Len() != 0 || f.Cap() != 0 {
		t.Fatal("nil recorder should be disabled and empty")
	}
	if got := f.Snapshot(RequestFilter{}); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf, RequestFilter{}); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		f.Record(RequestSummary{RequestID: fmt.Sprintf("r%02d", i), Route: "/v1/optimize"})
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (capacity)", f.Len())
	}
	got := f.Snapshot(RequestFilter{})
	if len(got) != 4 {
		t.Fatalf("snapshot has %d entries, want 4", len(got))
	}
	for i, s := range got {
		wantSeq := int64(7 + i)
		wantID := fmt.Sprintf("r%02d", 7+i)
		if s.Seq != wantSeq || s.RequestID != wantID {
			t.Errorf("entry %d = seq %d id %s, want seq %d id %s",
				i, s.Seq, s.RequestID, wantSeq, wantID)
		}
	}
}

// TestFlightRecorderFilterDeterminism pins filter semantics: route match,
// min-latency cutoff, and limit keeping the most recent matches while
// preserving oldest-first order.
func TestFlightRecorderFilterDeterminism(t *testing.T) {
	f := NewFlightRecorder(16)
	for i := 1; i <= 8; i++ {
		route := "/v1/optimize"
		if i%2 == 0 {
			route = "/v1/update"
		}
		f.Record(RequestSummary{
			RequestID: fmt.Sprintf("r%d", i),
			Route:     route,
			WallNanos: int64(i) * int64(time.Millisecond),
		})
	}
	got := f.Snapshot(RequestFilter{Route: "/v1/optimize", MinWall: 3 * time.Millisecond, Limit: 2})
	if len(got) != 2 {
		t.Fatalf("filtered snapshot has %d entries, want 2", len(got))
	}
	if got[0].RequestID != "r5" || got[1].RequestID != "r7" {
		t.Errorf("filtered = [%s %s], want [r5 r7]", got[0].RequestID, got[1].RequestID)
	}
	// Same filter, same state → identical result (determinism).
	again := f.Snapshot(RequestFilter{Route: "/v1/optimize", MinWall: 3 * time.Millisecond, Limit: 2})
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("snapshot not deterministic at %d: %+v vs %+v", i, got[i], again[i])
		}
	}
}

// TestFlightRecorderJSONGolden pins the byte-exact /v1/requests JSON for a
// fixed ring state. Regenerate with -update when the contract changes
// deliberately.
func TestFlightRecorderJSONGolden(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(RequestSummary{
		RequestID:     "aaaa000011112222",
		Method:        "POST",
		Route:         "/v1/optimize",
		Status:        200,
		StartUnixNano: 1700000000000000000,
		WallNanos:     2500000,
		BytesIn:       512,
		BytesOut:      128,
		Vertices:      9,
		Reused:        4,
		Computes:      5,
		Warmstarts:    1,
		PlanNanos:     1500000,
	})
	f.Record(RequestSummary{
		RequestID:     "bbbb000011112222",
		Method:        "GET",
		Route:         "/v1/stats",
		Status:        200,
		StartUnixNano: 1700000000100000000,
		WallNanos:     90000,
		BytesOut:      640,
	})
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf, RequestFilter{}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "flight_requests.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("flight JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestFlightRecorderConcurrent hammers Record/Snapshot/WriteJSON
// from many goroutines; the -race run is the assertion.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				f.Record(RequestSummary{RequestID: id, Route: "/v1/optimize", WallNanos: int64(i), Vertices: i})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = f.Snapshot(RequestFilter{Route: "/v1/optimize", Limit: 10})
				_ = f.WriteJSON(io.Discard, RequestFilter{MinWall: time.Microsecond})
			}
		}()
	}
	wg.Wait()
	if f.Len() != 32 {
		t.Fatalf("Len = %d, want full ring (32)", f.Len())
	}
	snap := f.Snapshot(RequestFilter{})
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot seq not strictly increasing: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
}
