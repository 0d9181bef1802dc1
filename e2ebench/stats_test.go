package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n              int
		p50, tail, pct float64
	}{
		{n: 1000, p50: 500, tail: 990, pct: 99},   // p99 itself has 10 beyond
		{n: 5000, p50: 2500, tail: 4950, pct: 99}, // capped at p99
		{n: 100, p50: 50, tail: 90, pct: 90},      // p99 would have 1 beyond
		{n: 11, p50: 6, tail: 1, pct: 100.0 / 11},
		{n: 5, p50: 3, tail: 5, pct: 100}, // too few: the maximum
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || math.Abs(s.TailPct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at p%v", tc.n, s, tc.p50, tc.tail, tc.pct)
		}
		if tc.n > tailBeyond {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want ≥%d", tc.n, beyond, tailBeyond)
			}
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestFailuresLandInTheTail(t *testing.T) {
	var s samples
	for i := 0; i < 100; i++ {
		s.add(time.Millisecond)
	}
	for i := 0; i < 11; i++ {
		s.fail()
	}
	sum := summarize(s.ms)
	if !math.IsInf(sum.Tail, 1) || sum.P50 != 1 {
		t.Fatalf("11 failures in 111 must own the tail: %+v", sum)
	}
	if got := s.sumSeconds(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("sumSeconds skips failures: got %v", got)
	}
}
