package main

import (
	"math"
	"runtime/metrics"
)

// gcWindow is the runtime's GC accounting over a stretch of the run.
type gcWindow struct {
	allocBytes uint64
	pauses     []uint64  // counts per bucket
	buckets    []float64 // bucket boundaries in seconds (len(pauses)+1)
}

var gcMetrics = []string{"/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readGC() gcWindow {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[1].Value.Float64Histogram()
	return gcWindow{
		allocBytes: s[0].Value.Uint64(),
		pauses:     append([]uint64(nil), h.Counts...),
		buckets:    h.Buckets,
	}
}

// since returns the accounting between an earlier reading and this one.
func (g gcWindow) since(earlier gcWindow) gcWindow {
	out := gcWindow{allocBytes: g.allocBytes - earlier.allocBytes, buckets: g.buckets}
	out.pauses = make([]uint64, len(g.pauses))
	for i := range g.pauses {
		out.pauses[i] = g.pauses[i] - earlier.pauses[i]
	}
	return out
}

// pauseQuantileMS returns the upper bound of the bucket holding the q-th
// quantile of GC pauses, in milliseconds (0 without pauses).
func (g gcWindow) pauseQuantileMS(q float64) float64 {
	var total uint64
	for _, c := range g.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range g.pauses {
		cum += c
		if cum >= need {
			hi := g.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = g.buckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}
