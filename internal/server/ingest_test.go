package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/rdf"
)

// liveTestServer boots a WAL-backed live store over the Fig. 1 dataset
// and mounts a server on it.
func liveTestServer(t *testing.T, liveCfg ingest.Config, srvCfg Config) (*Server, *ingest.Live) {
	t.Helper()
	e := engine.New(engine.Config{K: 5})
	e.AddTriples(rdf.MustParseFig1())
	e.Seal()
	w, err := ingest.Create(t.TempDir(), int64(e.NumTriples()), ingest.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := ingest.NewLive(e, w, liveCfg)
	t.Cleanup(func() { l.Close() })
	srvCfg.Live = l
	return New(l, srvCfg, 2), l
}

func exTerm(local string) termJSON {
	return termJSON{Kind: "iri", Value: rdf.ExampleNS + local}
}

func pub9TripleJSON() []tripleJSON {
	return []tripleJSON{
		{S: exTerm("pub9"), P: termJSON{Kind: "iri", Value: rdf.RDFType}, O: exTerm("Article")},
		{S: exTerm("pub9"), P: exTerm("title"), O: termJSON{Kind: "literal", Value: "Crashsafe Ingestion"}},
		{S: exTerm("pub9"), P: exTerm("year"), O: termJSON{Kind: "literal", Value: "2026"}},
		{S: exTerm("pub9"), P: exTerm("author"), O: exTerm("re2")},
	}
}

func TestIngestEndpointJSON(t *testing.T) {
	s, l := liveTestServer(t, ingest.Config{EpochMaxDelta: 1 << 20}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Single triple at the top level.
	one := tripleJSON{S: exTerm("pub9"), P: exTerm("title"),
		O: termJSON{Kind: "literal", Value: "Crashsafe Ingestion"}}
	status, body := postJSON(t, ts, "/v1/ingest", one)
	if status != http.StatusOK {
		t.Fatalf("single ingest status %d: %s", status, body)
	}
	var resp ingestResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Received != 1 || resp.Added != 1 || resp.Seq != 1 || resp.Swapped {
		t.Fatalf("single ingest: %+v", resp)
	}

	// Batch under "triples"; one row duplicates the single above.
	status, body = postJSON(t, ts, "/v1/ingest", ingestRequest{Triples: pub9TripleJSON()})
	if status != http.StatusOK {
		t.Fatalf("batch ingest status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Received != 4 || resp.Added != 3 || resp.Seq != 2 {
		t.Fatalf("batch ingest: %+v", resp)
	}
	if resp.DeltaTriples != 4 || l.DeltaTriples() != 4 {
		t.Fatalf("delta %d / %d, want 4", resp.DeltaTriples, l.DeltaTriples())
	}

	// A fully duplicate batch is acknowledged but inert.
	status, body = postJSON(t, ts, "/v1/ingest", one)
	if status != http.StatusOK {
		t.Fatalf("dup ingest status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Added != 0 || resp.Seq != 3 {
		t.Fatalf("dup ingest: %+v", resp)
	}

	// The new data answers execute immediately (pre-swap) via keywords
	// that already existed in the base.
	status, body = postJSON(t, ts, "/v1/execute",
		executeRequest{candidateRef: candidateRef{Keywords: []string{"cimiano", "article"}}})
	if status != http.StatusOK {
		t.Fatalf("execute status %d: %s", status, body)
	}
}

func TestIngestEndpointNDJSON(t *testing.T) {
	s, _ := liveTestServer(t, ingest.Config{EpochMaxDelta: 1 << 20}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var lines strings.Builder
	for _, tj := range pub9TripleJSON() {
		b, err := json.Marshal(tj)
		if err != nil {
			t.Fatal(err)
		}
		lines.Write(b)
		lines.WriteByte('\n')
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader(lines.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ir.Received != 4 || ir.Added != 4 {
		t.Fatalf("ndjson ingest: status %d, %+v", resp.StatusCode, ir)
	}
}

func TestIngestEndpointNTriples(t *testing.T) {
	s, _ := liveTestServer(t, ingest.Config{EpochMaxDelta: 1 << 20}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	nt := fmt.Sprintf("<%spub9> <%stitle> \"Crashsafe Ingestion\" .\n",
		rdf.ExampleNS, rdf.ExampleNS)
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/n-triples",
		strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ir.Added != 1 {
		t.Fatalf("n-triples ingest: status %d, %+v", resp.StatusCode, ir)
	}
}

func TestIngestReadOnlyBackend(t *testing.T) {
	s := testServer(t, Config{}) // sealed engine, no Live
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/ingest", pub9TripleJSON()[0])
	if status != http.StatusNotImplemented {
		t.Fatalf("read-only ingest status %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "read_only" {
		t.Fatalf("read-only error body: %s (%v)", body, err)
	}
}

func TestIngestRejectsBadBodies(t *testing.T) {
	s, _ := liveTestServer(t, ingest.Config{EpochMaxDelta: 1 << 20}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]any{
		"unknown kind":      tripleJSON{S: termJSON{Kind: "what", Value: "x"}, P: exTerm("p"), O: exTerm("o")},
		"literal predicate": tripleJSON{S: exTerm("s"), P: termJSON{Kind: "literal", Value: "p"}, O: exTerm("o")},
		"empty":             tripleJSON{},
	} {
		status, resp := postJSON(t, ts, "/v1/ingest", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, status, resp)
		}
	}
	if n := s.live.IngestedTriples(); n != 0 {
		t.Fatalf("rejected bodies reached the WAL: %d triples", n)
	}
}

// TestSwapInvalidatesTouchedCacheEntries is the end-to-end cache story:
// a swap drops the cached searches whose keywords touch the new labels —
// including a cached no-match the new data can now satisfy — and the
// disjoint ones too, since a swap can change any candidate's cost.
func TestSwapInvalidatesTouchedCacheEntries(t *testing.T) {
	// EpochMaxDelta 4 = the pub9 batch triggers the swap synchronously.
	s, l := liveTestServer(t, ingest.Config{EpochMaxDelta: 4}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	search := func(kw string) searchResponse {
		t.Helper()
		status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{kw}})
		if status != http.StatusOK {
			t.Fatalf("search %q status %d: %s", kw, status, body)
		}
		var sr searchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	// Prime the cache: a matching search on untouched labels, and a
	// no-match search on a keyword only the delta will introduce.
	if sr := search("aifb"); len(sr.Candidates) == 0 {
		t.Fatal("aifb finds nothing in the base graph")
	}
	if sr := search("crashsafe"); len(sr.Unmatched) != 1 {
		t.Fatalf("crashsafe should be unmatched pre-ingest: %+v", sr)
	}
	// Both entries are served from the cache on repeat.
	if sr := search("aifb"); !sr.Cached {
		t.Fatal("aifb not cached")
	}
	if sr := search("crashsafe"); !sr.Cached {
		t.Fatal("crashsafe no-match not cached")
	}

	status, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Triples: pub9TripleJSON()})
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil || status != http.StatusOK {
		t.Fatalf("ingest status %d: %s", status, body)
	}
	if !ir.Swapped || l.Swaps() != 1 {
		t.Fatalf("batch at the threshold did not swap: %+v (swaps %d)", ir, l.Swaps())
	}

	// The touched entry was invalidated: recomputed, and now matching.
	sr := search("crashsafe")
	if sr.Cached {
		t.Fatal("stale no-match served from cache after the swap")
	}
	if len(sr.Candidates) == 0 {
		t.Fatalf("crashsafe still unmatched after swap: %+v", sr)
	}
	// The disjoint entry was flushed as well.
	if sr := search("aifb"); sr.Cached {
		t.Fatal("cached search survived the swap")
	}

	// Observability: /healthz, /stats, and /metrics see the new epoch.
	status, body = getBody(t, ts, "/healthz")
	var hz struct {
		Ingest struct {
			Epoch  uint64 `json:"epoch"`
			Swaps  int64  `json:"swaps"`
			Delta  int    `json:"delta_triples"`
			Enable bool
		} `json:"ingest"`
	}
	if err := json.Unmarshal(body, &hz); err != nil || status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, body)
	}
	if hz.Ingest.Epoch != l.Epoch() || hz.Ingest.Swaps != 1 || hz.Ingest.Delta != 0 {
		t.Fatalf("healthz ingest block: %+v", hz.Ingest)
	}
	status, body = getBody(t, ts, "/stats")
	var st struct {
		Ingest map[string]any `json:"ingest"`
	}
	if err := json.Unmarshal(body, &st); err != nil || status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, body)
	}
	if st.Ingest["wal"] == nil || st.Ingest["cache_invalidated_total"].(float64) < 1 {
		t.Fatalf("stats ingest block: %+v", st.Ingest)
	}
	_, metricsBody := getBody(t, ts, "/metrics")
	for _, want := range []string{
		fmt.Sprintf("searchwebdb_epoch %d", l.Epoch()),
		"searchwebdb_ingest_triples_total 4",
		"searchwebdb_epoch_swap_seconds_count 1",
		"searchwebdb_wal_fsync_seconds",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSwapFlushesCostStaleSearches is the regression test for stale
// cached searches: the ingested batch shares no analyzed token with the
// cached keywords, but its new Researcher instances change the summary
// statistics the candidates' costs are computed from. After the swap,
// /v1/search must recompute and agree with the live store exactly —
// costs, order and SPARQL.
func TestSwapFlushesCostStaleSearches(t *testing.T) {
	const n = 6
	s, l := liveTestServer(t, ingest.Config{EpochMaxDelta: n}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	keywords := []string{"cimiano", "aifb"}
	search := func() searchResponse {
		t.Helper()
		status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: keywords})
		if status != http.StatusOK {
			t.Fatalf("search status %d: %s", status, body)
		}
		var sr searchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	render := func(cands []candidateJSON) string {
		var b strings.Builder
		for _, c := range cands {
			fmt.Fprintf(&b, "%d %v %s\n", c.Rank, c.Cost, c.SPARQL)
		}
		return b.String()
	}

	before := search()
	if len(before.Candidates) == 0 {
		t.Fatal("no candidates before the ingest")
	}
	if sr := search(); !sr.Cached {
		t.Fatal("search not cached")
	}

	var batch []tripleJSON
	for i := 0; i < n; i++ {
		batch = append(batch, tripleJSON{
			S: exTerm(fmt.Sprintf("re%d", 10+i)),
			P: termJSON{Kind: "iri", Value: rdf.RDFType},
			O: exTerm("Researcher"),
		})
	}
	status, body := postJSON(t, ts, "/v1/ingest", ingestRequest{Triples: batch})
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil || status != http.StatusOK || !ir.Swapped {
		t.Fatalf("ingest did not swap: status %d: %s", status, body)
	}

	cands, _, err := l.SearchKContext(context.Background(), keywords, before.K)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i, c := range cands {
		fmt.Fprintf(&want, "%d %v %s\n", i, c.Cost, c.SPARQL())
	}
	if want.String() == render(before.Candidates) {
		t.Fatal("the batch did not change the candidates' costs; the test exercises nothing")
	}
	after := search()
	if after.Cached {
		t.Fatal("cost-stale search served from cache after the swap")
	}
	if got := render(after.Candidates); got != want.String() {
		t.Fatalf("search after the swap:\n%s\nlive store:\n%s", got, want.String())
	}
}

// TestGateReplaying covers the boot readiness gate: 503 + replay
// progress before Ready, transparent delegation after.
func TestGateReplaying(t *testing.T) {
	g := NewGate()
	ts := httptest.NewServer(g)
	defer ts.Close()

	status, body := getBody(t, ts, "/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("pre-ready healthz status %d", status)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil || hz["status"] != "replaying" {
		t.Fatalf("pre-ready healthz body: %s", body)
	}
	if _, ok := hz["replay"]; ok {
		t.Fatal("replay block present before any progress")
	}

	g.SetProgress(ingest.ReplayProgress{BatchesDone: 3, BatchesTotal: 10, TriplesDone: 42, TriplesTotal: 140})
	_, body = getBody(t, ts, "/healthz")
	var hz2 struct {
		Status string                `json:"status"`
		Replay ingest.ReplayProgress `json:"replay"`
	}
	if err := json.Unmarshal(body, &hz2); err != nil {
		t.Fatal(err)
	}
	if hz2.Status != "replaying" || hz2.Replay.BatchesDone != 3 || hz2.Replay.TriplesTotal != 140 {
		t.Fatalf("progress not surfaced: %s", body)
	}

	// Every other path is refused with the replaying code.
	status, body = postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"x"}})
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || status != http.StatusServiceUnavailable || er.Code != "replaying" {
		t.Fatalf("pre-ready search: %d %s", status, body)
	}

	g.Ready(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	status, _ = getBody(t, ts, "/healthz")
	if status != http.StatusTeapot {
		t.Fatalf("post-ready request not delegated: %d", status)
	}
}
