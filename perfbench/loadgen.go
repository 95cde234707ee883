package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the outcome of one op. Times are offsets from the phase start.
type sample struct {
	Kind opKind
	Due  time.Duration // open loop: when the op was due; closed loop: when it was sent
	Sent time.Duration // when a client connection took it
	End  time.Duration

	// Per-request latencies: a search is timed from the op's due time,
	// an execute that follows a search from the moment the search
	// answered (its due time), an ingest from its due time.
	SearchLat, ExecLat, IngestLat time.Duration

	Err      string // failure: transport error, non-2xx, wrong answer, deadline miss
	Wrong    bool   // the answer failed the correctness gate
	Rejected bool   // 503 "overloaded"
	Bytes    int    // response body bytes
	Cached   bool   // search answered from the cache
	Shared   bool   // search shared another request's computation
	Calls    int    // HTTP requests made

	// Answers for the correctness gate. Over HTTP the phases keep only
	// the replies; settle fills Search and Exec from them afterwards.
	searchReply, execReply *reply
	Search                 *searchRecord
	Exec                   *execRecord
	Ingest                 *ingestRecord
}

// late is how far the op's send ran behind its due time.
func (s *sample) late() time.Duration { return s.Sent - s.Due }

// latency is the whole op, due to end.
func (s *sample) latency() time.Duration { return s.End - s.Due }

// doFunc performs one op; start is the phase start, due the op's due time
// relative to it (so the callee can stamp its own sub-request times).
type doFunc func(ctx context.Context, o op, reqID int64, start time.Time, s *sample)

// runOpenLoop sends ops at their due times over conns client slots. An op
// whose slot is busy waits, and its latency still runs from its due time,
// so a stall shows up in every op it delays.
func runOpenLoop(ctx context.Context, ops []op, conns int, do doFunc) []sample {
	out := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				o := ops[i]
				if d := time.Until(start.Add(o.Due)); d > 0 {
					time.Sleep(d)
				}
				s := &out[i]
				s.Kind, s.Due, s.Sent = o.Kind, o.Due, time.Since(start)
				do(ctx, o, int64(i), start, s)
				s.End = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosedLoop keeps conns clients busy for d, each sending its next op
// as soon as the previous one answered. next must be safe for concurrent
// use. The returned duration is the measured span of the phase.
func runClosedLoop(ctx context.Context, d time.Duration, conns int, firstID int64, next func() op, do doFunc) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	var ids atomic.Int64
	ids.Store(firstID)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := next()
				s := sample{Kind: o.Kind}
				s.Sent = time.Since(start)
				s.Due = s.Sent
				do(ctx, o, ids.Add(1), start, &s)
				s.End = time.Since(start)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest percentile of the ladder with at
// least ten of n samples beyond it (0 when not even the median has).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place), in milliseconds.
func percentile(xs []time.Duration, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	idx := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(xs[idx]) / float64(time.Millisecond)
}
