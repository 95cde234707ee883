package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
)

func smallCorpus(t *testing.T) *lexicon {
	t.Helper()
	return buildLexicon(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 300, Seed: dataSeed}))
}

func encodedStream(t *testing.T, w workload, seed int64, lx *lexicon) []byte {
	t.Helper()
	g := newStreamGen(w, seed, lx)
	ops := g.openLoop(2 * time.Second)
	ops = append(ops, g.warmup()...)
	for i := 0; i < 50; i++ {
		ops = append(ops, g.next())
	}
	// JSON lines are the canonical byte form compared.
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, o := range ops {
		if err := enc.Encode(o); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	lx := smallCorpus(t)
	for _, w := range workloads {
		a := encodedStream(t, w, 7, lx)
		if b := encodedStream(t, w, 7, lx); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.Name)
		}
		if c := encodedStream(t, w, 8, lx); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.Name)
		}
	}
}

func TestMissStreamsNeverRepeatAQuery(t *testing.T) {
	lx := smallCorpus(t)
	w, _ := workloadByName("search_miss")
	g := newStreamGen(w, 3, lx)
	seen := map[string]bool{}
	for _, o := range g.openLoop(10 * time.Second) {
		key := queryKey(o.Keywords)
		if seen[key] {
			t.Fatalf("query %q repeated", o.Keywords)
		}
		seen[key] = true
	}
}

func queryKey(kws []string) string {
	var b bytes.Buffer
	for _, k := range kws {
		b.WriteString(k)
		b.WriteByte(0)
	}
	return b.String()
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]time.Duration, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 ms = %g, want 990", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// A handler that stalls once must show up both in the latency of the ops
// queued behind it (timed from their due times) and in how late the
// generator sent them.
func TestStallShowsInLatencyFromDueAndLateness(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"candidates":[]}`))
	}))
	defer ts.Close()
	replies, err := newReplyStore(filepath.Join(t.TempDir(), "replies"))
	if err != nil {
		t.Fatal(err)
	}
	defer replies.close()
	c := newHTTPClient(ts.URL, 1, nil, replies)
	defer c.close()

	ops := make([]op, 40)
	for i := range ops {
		ops[i] = op{Kind: opSearch, Keywords: []string{"x"}, K: 10, Due: time.Duration(i) * 10 * time.Millisecond}
	}
	samples := runOpenLoop(context.Background(), ops, 1, c.do)
	var late []time.Duration
	for _, s := range samples {
		if s.Err != "" {
			t.Fatalf("op failed: %s", s.Err)
		}
		late = append(late, s.late())
	}
	// The op due right after the stalled one waited for it to finish.
	if got := samples[5].SearchLat; got < stall-20*time.Millisecond {
		t.Errorf("op behind the stall: latency from due %v, want ≥ %v", got, stall-20*time.Millisecond)
	}
	if got := samples[5].End - samples[5].Sent; got > 100*time.Millisecond {
		t.Errorf("op behind the stall took %v on the wire; the wait belongs before sending", got)
	}
	if p := percentile(late, 99); p < float64((stall-20*time.Millisecond)/time.Millisecond) {
		t.Errorf("late p99 = %.1f ms, want ≥ %v", p, stall-20*time.Millisecond)
	}
	if samples[len(samples)-1].late() > 50*time.Millisecond {
		t.Errorf("generator never caught up: last op %v late", samples[len(samples)-1].late())
	}
}

func TestStageReplayEqualsEngine(t *testing.T) {
	ts := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 500, Seed: dataSeed})
	e := buildEngine(ts)
	lx := buildLexicon(ts)
	w, _ := workloadByName("search_miss")
	g := newStreamGen(w, 11, lx)
	queries := [][]string{{"thanh tran", "before 2005"}, {"publication", ">= 2000"}, {"stanford infolab"}}
	for i := 0; i < 60; i++ {
		queries = append(queries, g.next().Keywords)
	}
	ex := core.NewExplorer()
	var m stageStats
	compared := 0
	for _, q := range queries {
		got, unmatched := replaySearch(e, ex, q, 10, &m)
		want, _, err := e.SearchKContext(context.Background(), q, 10)
		var um *engine.UnmatchedKeywordsError
		switch {
		case errors.As(err, &um):
			if len(unmatched) != len(um.Keywords) {
				t.Errorf("%q: replay unmatched %q, engine %q", q, unmatched, um.Keywords)
			}
		case err != nil:
			t.Fatal(err)
		default:
			if err := sameCandidates(got, want); err != nil {
				t.Errorf("%q: %v", q, err)
			}
			compared++
		}
	}
	if compared < len(queries)/2 {
		t.Fatalf("only %d of %d queries matched fully; the check compares too little", compared, len(queries))
	}
	if m.unmatched == 0 {
		t.Errorf("no keyword missed; %q should", "stanford infolab")
	}
}

// Each block of queryShapes.len fresh queries has exactly the shapes'
// keyword counts, all within 1–5.
func TestMissStreamFollowsTheQueryShapes(t *testing.T) {
	want := map[int]int{}
	for _, s := range queryShapes {
		if len(s) < 1 || len(s) > 5 {
			t.Fatalf("shape %v: %d keywords, want 1–5", s, len(s))
		}
		want[len(s)]++
	}
	w, _ := workloadByName("search_miss")
	g := newStreamGen(w, 5, smallCorpus(t))
	got := map[int]int{}
	for i := 0; i < len(queryShapes); i++ {
		got[len(g.next().Keywords)]++
	}
	for n, c := range want {
		if got[n] != c {
			t.Errorf("%d-keyword queries: %d in a block, want %d", n, got[n], c)
		}
	}
}

// Answers to one request that differ only in their timings share a reply;
// any other difference keeps both.
func TestRepliesDifferingOnlyInTimingsAreKeptOnce(t *testing.T) {
	rs, err := newReplyStore(filepath.Join(t.TempDir(), "replies"))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	o := op{Kind: opSession, Keywords: []string{"a", "b"}, K: 10, Limit: 10}
	a := rs.put(o, 1, true, []byte(`{"rows":[[{"kind":"literal","value":"x"}]],"count":1,"elapsed_ms":0.25,"execution":{"plan_ms":1e-3}}`))
	b := rs.put(o, 1, true, []byte(`{"rows":[[{"kind":"literal","value":"x"}]],"count":1,"elapsed_ms":12.5,"execution":{"plan_ms":2}}`))
	c := rs.put(o, 1, true, []byte(`{"rows":[[{"kind":"literal","value":"y"}]],"count":1,"elapsed_ms":0.25,"execution":{"plan_ms":1e-3}}`))
	d := rs.put(o, 2, true, []byte(`{"rows":[[{"kind":"literal","value":"x"}]],"count":1,"elapsed_ms":0.25,"execution":{"plan_ms":1e-3}}`))
	if a != b {
		t.Error("answers differing only in timings were kept twice")
	}
	if a == c || a == d {
		t.Error("different answers, or answers to different requests, share a reply")
	}
	if err := rs.decode(false); err != nil {
		t.Fatal(err)
	}
	if a.err != "" || c.err != "" || a.exec.Count != 1 || a.exec.Digest == c.exec.Digest {
		t.Errorf("decoded replies: %+v and %+v, want one row each, different row sets", a.exec, c.exec)
	}
	// The client's connections keep replies concurrently.
	got := make([]*reply, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = rs.put(o, 3, true, []byte(fmt.Sprintf(`{"rows":[],"count":0,"elapsed_ms":%d}`, i)))
		}()
	}
	wg.Wait()
	for _, r := range got[1:] {
		if r != got[0] {
			t.Fatal("concurrent equal answers were kept more than once")
		}
	}
}

// capacity_rps is the median of the closed loop's one-second windows, so
// one slow second does not move it.
func TestCapacityIsTheMedianWindow(t *testing.T) {
	var closed []sample
	add := func(sec, n int) {
		for i := 0; i < n; i++ {
			closed = append(closed, sample{End: time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond})
		}
	}
	add(0, 100)
	add(1, 10) // a stalled second
	add(2, 110)
	add(3, 90)
	add(4, 105)
	closed = append(closed, sample{End: 4500 * time.Millisecond, Err: "failed"})
	if got := capacity(closed, 5*time.Second+300*time.Millisecond); got != 100 {
		t.Errorf("capacity = %g, want the median window, 100", got)
	}
}
