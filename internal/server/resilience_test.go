package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/shard"
)

// chaosServer builds a server over a 4-shard cluster with a fault
// injector installed — the serverd "-shards 4 -chaos ..." deployment the
// CI chaos smoke boots.
func chaosServer(t *testing.T, cfg Config, inj *faultinject.Injector) *Server {
	t.Helper()
	b := shard.NewBuilder(4, engine.Config{K: 5})
	b.AddTriples(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 200, Seed: 1}))
	cl := b.Build()
	cl.SetInjector(inj)
	return New(cl, cfg, 2)
}

// TestHandlerPanicRecovered drives a panicking handler through the full
// instrumentation stack: the client gets a 500 with code "panic", the
// panic counter moves, and — because the request errored — the slowlog
// captures it. The server keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	s := testServer(t, Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.instrument("search", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	mux.HandleFunc("GET /debug/slowlog", s.instrument("slowlog", s.handleSlowlog))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"x"}})
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "panic" || !strings.Contains(er.Error, "boom") {
		t.Fatalf("error response %+v", er)
	}
	if got := s.mPanics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	// A second request proves the process survived the panic.
	status, body = getBody(t, ts, "/metrics")
	if status != http.StatusOK || !strings.Contains(string(body), "searchwebdb_panics_total 1") {
		t.Fatalf("metrics after panic: %d %s", status, body)
	}
	// The erroring request landed in the slowlog with its body head.
	status, body = getBody(t, ts, "/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("slowlog status %d", status)
	}
	var slow struct {
		RecentErrors []struct {
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
			Error    string `json:"error,omitempty"`
		} `json:"recent_errors"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range slow.RecentErrors {
		if e.Endpoint == "search" && e.Status == http.StatusInternalServerError {
			found = true
		}
	}
	if !found {
		t.Fatalf("panicking request not captured in slowlog: %s", body)
	}
}

// TestShardPanicContainedOverHTTP panics a shard through the fault
// injector and drives the query over the real HTTP path: the shard is
// lost but the response is still a 200 with a degraded coverage block —
// a crashing shard never becomes a 500 — and the panic is counted once.
func TestShardPanicContainedOverHTTP(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Shard: 0, Op: faultinject.OpLookup, Mode: faultinject.ModePanic,
	})
	s := chaosServer(t, Config{}, inj)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication", "title"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp searchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	cov := resp.Coverage
	if cov == nil || !cov.Degraded || cov.ShardsFailed != 1 || cov.ShardsAnswered != 3 {
		t.Fatalf("coverage %+v, want degraded with 1 of 4 shards failed", cov)
	}
	if cov.Panics != 1 {
		t.Fatalf("coverage %+v, want exactly 1 panic", cov)
	}
	if len(resp.Candidates) == 0 {
		t.Fatal("degraded search returned no candidates")
	}
	if got := s.mPanics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	if s.mDegraded.Value() == 0 {
		t.Fatal("degraded responses counter did not move")
	}
}

// TestDegradedSearchOverHTTP is the CI chaos smoke in miniature: one
// shard errors on every lookup, and /v1/search answers partial
// results with an honest coverage block — and a repeat is NOT served
// from the cache (degraded results are transient).
func TestDegradedSearchOverHTTP(t *testing.T) {
	inj := faultinject.New(7, faultinject.Rule{Shard: 0, Mode: faultinject.ModeError})
	s := chaosServer(t, Config{}, inj)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for round := 0; round < 2; round++ {
		status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication", "title"}})
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, status, body)
		}
		var resp searchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Coverage == nil || !resp.Coverage.Degraded {
			t.Fatalf("round %d: coverage %+v, want degraded", round, resp.Coverage)
		}
		if resp.Cached {
			t.Fatalf("round %d: degraded result served from cache", round)
		}
	}

	// Execute degrades the same way, and the NDJSON trailer carries the
	// coverage block.
	exBody, _ := json.Marshal(executeRequest{
		candidateRef: candidateRef{Query: &queryJSON{Atoms: []atomJSON{{
			S: argJSON{Var: "p"},
			P: argJSON{IRI: "http://dblp.example.org/name"},
			O: argJSON{Var: "n"},
		}}}},
		Limit: 5,
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", bytes.NewReader(exBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	hresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson execute status %d", hresp.StatusCode)
	}
	dec := json.NewDecoder(hresp.Body)
	var trailer executeStreamTrailer
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		if raw[0] == '{' {
			_ = json.Unmarshal(raw, &trailer)
		}
	}
	if trailer.Coverage == nil || !trailer.Coverage.Degraded {
		t.Fatalf("ndjson trailer coverage %+v, want degraded", trailer.Coverage)
	}
}

// TestRequireFullCoverage flips the strict knob: the same degraded
// search and execute now answer 503 with code "degraded" instead of
// partial results.
func TestRequireFullCoverage(t *testing.T) {
	inj := faultinject.New(7, faultinject.Rule{Shard: 0, Mode: faultinject.ModeError})
	s := chaosServer(t, Config{RequireFullCoverage: true}, inj)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication", "title"}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("search status %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "degraded" {
		t.Fatalf("error response %+v", er)
	}

	status, body = postJSON(t, ts, "/v1/execute", executeRequest{
		candidateRef: candidateRef{Query: &queryJSON{Atoms: []atomJSON{{
			S: argJSON{Var: "p"},
			P: argJSON{IRI: "http://dblp.example.org/name"},
			O: argJSON{Var: "n"},
		}}}},
		Limit: 5,
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("execute status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "degraded" {
		t.Fatalf("error response %+v", er)
	}
}

// TestMaxBodyBytes caps the request body: an oversized /v1/search POST
// is answered 413 with code "body_too_large"; a small one still works.
func TestMaxBodyBytes(t *testing.T) {
	s := testServer(t, Config{MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := searchRequest{Keywords: []string{strings.Repeat("x", 1024)}}
	status, body := postJSON(t, ts, "/v1/search", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "body_too_large" {
		t.Fatalf("error response %+v", er)
	}
	status, _ = postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication"}})
	if status != http.StatusOK {
		t.Fatalf("small body after 413: status %d", status)
	}
}

// TestStatsClusterSection asserts /stats grows a cluster block (shard
// count, degraded and panic totals, the coverage policy) for a sharded
// backend, and nothing of the removed replica layer.
func TestStatsClusterSection(t *testing.T) {
	s := chaosServer(t, Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := getBody(t, ts, "/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	var stats struct {
		Cluster map[string]any `json:"cluster"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"shards":                 4.0,
		"degraded_total":         0.0,
		"require_full_coverage":  false,
		"panics_recovered_total": 0.0,
	}
	if fmt.Sprint(stats.Cluster) != fmt.Sprint(want) {
		t.Fatalf("cluster stats %v, want %v", stats.Cluster, want)
	}
	status, body = getBody(t, ts, "/metrics")
	if status != http.StatusOK || !strings.Contains(string(body), "searchwebdb_degraded_responses_total 0") {
		t.Fatalf("metrics missing the degraded counter: %d", status)
	}
	for _, gone := range []string{"searchwebdb_hedges_total", "searchwebdb_shard_retries_total", "searchwebdb_shard_breaker_state"} {
		if strings.Contains(string(body), gone) {
			t.Errorf("metrics still export %s", gone)
		}
	}

	// The single-engine server reports no cluster section.
	single := httptest.NewServer(testServer(t, Config{}).Handler())
	defer single.Close()
	_, body = getBody(t, single, "/stats")
	var singleStats struct {
		Cluster *json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal(body, &singleStats); err != nil {
		t.Fatal(err)
	}
	if singleStats.Cluster != nil && string(*singleStats.Cluster) != "null" {
		t.Fatalf("single engine grew a cluster section: %s", *singleStats.Cluster)
	}
}

// TestGracefulDrain serves over a real http.Server, parks a slow request
// in flight (injected lookup delay), then calls Shutdown: the in-flight
// request must complete normally before the listener dies.
func TestGracefulDrain(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Shard: faultinject.Any, Op: faultinject.OpLookup,
		Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond, Count: 1,
	})
	s := chaosServer(t, Config{}, inj)
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(searchRequest{Keywords: []string{"publication", "title"}})
		resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()
	// Give the request time to reach the handler, then start draining.
	time.Sleep(100 * time.Millisecond)
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain", r.status)
	}
	// The listener is closed: new connections must be refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server accepted a connection after drain")
	}
}

// TestChaosSpecBoot exercises the serverd -chaos plumbing end to end in
// miniature: parse a spec string, install it, and watch the scripted
// fault fire through the HTTP path.
func TestChaosSpecBoot(t *testing.T) {
	rules, err := faultinject.Parse("error,shard=0,op=lookup")
	if err != nil {
		t.Fatal(err)
	}
	s := chaosServer(t, Config{}, faultinject.New(42, rules...))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication", "title"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp searchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Coverage == nil || !resp.Coverage.Degraded {
		t.Fatalf("coverage %+v, want degraded from parsed chaos spec", resp.Coverage)
	}
	if got := fmt.Sprintf("%d/%d", resp.Coverage.ShardsAnswered, resp.Coverage.ShardsTotal); got != "3/4" {
		t.Fatalf("coverage %s, want 3/4", got)
	}
}
