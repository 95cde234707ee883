package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
)

// Headers that carry a request's id and its client span to the server
// side of the traced run.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// span is one timed call: name, request id, parent span (-1: none), and
// start and end in nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the untimed warm-up's).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span whose name passes keep, its duration minus
// the time its direct children cover.
func (t *tracer) selfTimes(keep func(name string) bool) []time.Duration {
	children := map[int32][]int32{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if !keep(s.Name) {
			continue
		}
		out = append(out, s.dur()-covered(t.spans, children[int32(i)]))
	}
	return out
}

// covered is the length of the union of the child intervals.
func covered(spans []span, kids []int32) time.Duration {
	var total, lastEnd int64
	// children are appended in start order, so one sweep merges overlaps.
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if s < lastEnd {
			s = lastEnd
		}
		if e > s {
			total += e - s
			lastEnd = e
		}
	}
	return time.Duration(total)
}

type spanRef struct {
	req int64
	idx int32
}

type spanKey struct{}

// middleware opens a server span per HTTP request, child of the client
// span named in the request headers, and hands it to the backend
// decorator through the request context.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
		if err != nil {
			parent = -1
		}
		i := t.begin("server"+r.URL.Path, req, int32(parent))
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{req, i})))
		t.end(i)
	})
}

// timedQueryer is the timing decorator around the backend handed to
// server.New: it opens a backend span under the server span of the
// request and sums the cluster's retries and hedges.
type timedQueryer struct {
	engine.Queryer
	t             *tracer
	name          string // "engine" or "shard"
	retriesHedges atomic.Int64
}

func (q *timedQueryer) open(ctx context.Context, op string) int32 {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		ref = spanRef{idx: -1}
	}
	return q.t.begin(q.name+"."+op, ref.req, ref.idx)
}

func (q *timedQueryer) countCoverage(c *exec.Coverage) {
	if c != nil {
		q.retriesHedges.Add(int64(c.Retries + c.HedgesFired))
	}
}

func (q *timedQueryer) SearchKContext(ctx context.Context, keywords []string, k int) ([]*engine.QueryCandidate, *engine.SearchInfo, error) {
	i := q.open(ctx, "search")
	cands, info, err := q.Queryer.SearchKContext(ctx, keywords, k)
	q.t.end(i)
	if info != nil {
		q.countCoverage(info.Coverage)
	}
	return cands, info, err
}

func (q *timedQueryer) ExecuteLimitContext(ctx context.Context, c *engine.QueryCandidate, limit int) (*exec.ResultSet, error) {
	i := q.open(ctx, "execute")
	rs, err := q.Queryer.ExecuteLimitContext(ctx, c, limit)
	q.t.end(i)
	if rs != nil {
		q.countCoverage(rs.Stats.Coverage)
	}
	return rs, err
}
