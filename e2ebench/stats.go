package main

import (
	"math"
	"sort"
	"time"
)

// summary is the latency view of one sample set: the median and the tail,
// where the tail is the highest percentile (at most p99) that still has at
// least tailBeyond samples above it. Every printed timing carries its N.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // percentile the Tail value sits at (e.g. 99, 96.5)
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// summarize computes the median and the tail with nearest-rank
// percentiles. With fewer than tailBeyond+1 samples no percentile has
// enough samples beyond it; the tail is then the maximum (TailPct 100).
// Failed operations enter as +Inf so they always land in the tail.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - 1 - tailBeyond; k > lim {
		k = lim
	}
	if k < 0 {
		k = n - 1
	}
	return summary{
		N:       n,
		P50:     s[int(math.Ceil(0.5*float64(n)))-1],
		Tail:    s[k],
		TailPct: 100 * float64(k+1) / float64(n),
	}
}

// median is the nearest-rank median of xs (0 for no samples).
func median(xs []float64) float64 { return summarize(xs).P50 }

// samples accumulates durations in milliseconds.
type samples struct{ ms []float64 }

func (s *samples) add(d time.Duration) { s.ms = append(s.ms, float64(d)/float64(time.Millisecond)) }

// fail records a failed operation, which misses any latency limit.
func (s *samples) fail() { s.ms = append(s.ms, math.Inf(1)) }

func (s *samples) sumSeconds() float64 {
	var t float64
	for _, v := range s.ms {
		if !math.IsInf(v, 0) {
			t += v
		}
	}
	return t / 1000
}

// ratio divides, reading a zero base as 0.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
