package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/rdf"
)

// The golden equivalence suite: a cluster of N shards must be
// indistinguishable from a single engine — identical candidate lists
// (costs, order, SPARQL), identical diagnostics, identical answer sets,
// identical plans — for N = 1, 2, 4 on the DBLP and LUBM workloads,
// with the direct transports and again with every shard call routed
// through an injector that never fires.

// idleInjector wraps every shard transport with an injector whose only
// rule names a shard the cluster does not have, so it never fires.
func idleInjector(cl *Cluster) *faultinject.Injector {
	return faultinject.New(1, faultinject.Rule{Shard: cl.NumShards(), Mode: faultinject.ModeError})
}

func buildCluster(tb testing.TB, n int, triples []rdf.Triple, cfg engine.Config) *Cluster {
	tb.Helper()
	b := NewBuilder(n, cfg)
	b.AddTriples(triples)
	return b.Build()
}

func buildEngine(tb testing.TB, triples []rdf.Triple, cfg engine.Config) *engine.Engine {
	tb.Helper()
	e := engine.New(cfg)
	e.AddTriples(triples)
	e.Seal()
	return e
}

// equalRows compares two result sets as sets (both sorted canonically).
func equalRows(a, b [][]rdf.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// compareQuery asserts the cluster answers one keyword query exactly as
// the engine does: search, execute (top 3 candidates), and explain.
func compareQuery(t *testing.T, eng *engine.Engine, cl *Cluster, keywords []string) {
	t.Helper()
	ctx := context.Background()
	label := fmt.Sprintf("shards=%d %v", cl.NumShards(), keywords)

	ec, einfo, eerr := eng.SearchKContext(ctx, keywords, 0)
	cc, cinfo, cerr := cl.SearchKContext(ctx, keywords, 0)

	var eu, cu *engine.UnmatchedKeywordsError
	eIsU := errors.As(eerr, &eu)
	cIsU := errors.As(cerr, &cu)
	if eIsU || cIsU {
		if eu == nil || cu == nil || fmt.Sprint(eu.Keywords) != fmt.Sprint(cu.Keywords) {
			t.Fatalf("%s: unmatched mismatch: engine=%v cluster=%v", label, eerr, cerr)
		}
		return
	}
	if (eerr == nil) != (cerr == nil) {
		t.Fatalf("%s: error mismatch: engine=%v cluster=%v", label, eerr, cerr)
	}
	if eerr != nil {
		return
	}
	if fmt.Sprint(einfo.MatchCounts) != fmt.Sprint(cinfo.MatchCounts) {
		t.Errorf("%s: match counts: engine=%v cluster=%v", label, einfo.MatchCounts, cinfo.MatchCounts)
	}
	if einfo.Guaranteed != cinfo.Guaranteed {
		t.Errorf("%s: guaranteed: engine=%v cluster=%v", label, einfo.Guaranteed, cinfo.Guaranteed)
	}
	if len(ec) != len(cc) {
		t.Fatalf("%s: candidate count: engine=%d cluster=%d", label, len(ec), len(cc))
	}
	for i := range ec {
		if ec[i].Cost != cc[i].Cost {
			t.Fatalf("%s: candidate %d cost: engine=%v cluster=%v", label, i, ec[i].Cost, cc[i].Cost)
		}
		if ec[i].SPARQL() != cc[i].SPARQL() {
			t.Fatalf("%s: candidate %d SPARQL:\nengine:  %s\ncluster: %s", label, i, ec[i].SPARQL(), cc[i].SPARQL())
		}
		if ec[i].Describe() != cc[i].Describe() {
			t.Fatalf("%s: candidate %d description: engine=%q cluster=%q", label, i, ec[i].Describe(), cc[i].Describe())
		}
	}

	for i := 0; i < len(ec) && i < 3; i++ {
		ers, err := eng.ExecuteLimitContext(ctx, ec[i], 0)
		if err != nil {
			t.Fatalf("%s: engine execute %d: %v", label, i, err)
		}
		crs, err := cl.ExecuteLimitContext(ctx, cc[i], 0)
		if err != nil {
			t.Fatalf("%s: cluster execute %d: %v", label, i, err)
		}
		ers.SortRows()
		if fmt.Sprint(ers.Vars) != fmt.Sprint(crs.Vars) {
			t.Fatalf("%s: execute %d vars: engine=%v cluster=%v", label, i, ers.Vars, crs.Vars)
		}
		if !equalRows(ers.Rows, crs.Rows) {
			t.Fatalf("%s: execute %d rows differ: engine=%d rows, cluster=%d rows",
				label, i, len(ers.Rows), len(crs.Rows))
		}
		if ers.Truncated != crs.Truncated {
			t.Errorf("%s: execute %d truncated: engine=%v cluster=%v", label, i, ers.Truncated, crs.Truncated)
		}

		eplan, err := eng.Explain(ec[i])
		if err != nil {
			t.Fatalf("%s: engine explain %d: %v", label, i, err)
		}
		cplan, err := cl.Explain(cc[i])
		if err != nil {
			t.Fatalf("%s: cluster explain %d: %v", label, i, err)
		}
		if eplan.String() != cplan.String() {
			t.Fatalf("%s: explain %d:\nengine:\n%s\ncluster:\n%s", label, i, eplan, cplan)
		}
	}
}

// dblpQueries covers the Fig. 4 effectiveness workload and the Fig. 5
// performance workload (keyword lists inlined — internal/bench imports
// this package, so the test cannot import it back), plus filter-keyword,
// typo/synonym, and unmatched probes.
func dblpQueries() [][]string {
	return [][]string{
		// Fig. 4 effectiveness workload (D01–D30 keyword lists).
		{"thanh tran", "publication"},
		{"philipp cimiano", "publication"},
		{"haofen wang", "article"},
		{"sebastian rudolph", "2006"},
		{"thanh tran", "2005"},
		{"exploration candidates"},
		{"bidirectional", "expansion"},
		{"browsing", "2002"},
		{"aifb", "author"},
		{"philipp cimiano", "aifb"},
		{"thanh tran", "conference"},
		{"haofen wang", "journal"},
		{"thanh tran", "venue"},
		{"article", "cites", "inproceedings"},
		{"paper", "sebastian rudolph"},
		{"publication", "1999"},
		{"author", "institute"},
		{"article", "journal"},
		{"publication", "cites"},
		{"data engineering", "publication"},
		{"thanh tran"},
		{"aifb"},
		{"cimano", "publication"}, // typo → fuzzy
		{"writer", "aifb"},        // synonym → semantic
		{"max planck institute", "author"},
		{"haofen wang", "institute"},
		{"sebastian rudolph", "conference", "2006"},
		{"title", "publication"},
		{"year", "thanh tran"},
		{"stanford", "publication"},
		// Fig. 5 performance workload (Q1–Q10).
		{"thanh tran", "2006"},
		{"candidates", "2006"},
		{"philipp cimiano", "aifb", "2005"},
		{"bidirectional", "expansion", "databases"},
		{"haofen wang", "aifb", "2005"},
		{"thanh tran", "aifb", "candidates", "2006"},
		{"keyword", "search", "graph", "databases"},
		{"haofen wang", "aifb", "bidirectional", "expansion", "2005"},
		{"philipp cimiano", "aifb", "bidirectional", "expansion", "graph", "2005"},
		// Filter-operator extension and unmatched probes.
		{"thanh tran", "before 2005"},
		{"publication", "after 2000"},
		{"zzzqqqxyzzy"},              // unmatched
		{"publication", "zzzqqqxyz"}, // partially unmatched
	}
}

func TestClusterEquivalenceDBLP(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 400, Seed: 1})
	cfg := engine.Config{K: 10}
	eng := buildEngine(t, triples, cfg)
	if eng.NumTriples() == 0 {
		t.Fatal("empty dataset")
	}
	for _, n := range []int{1, 2, 4} {
		cl := buildCluster(t, n, triples, cfg)
		if cl.NumTriples() != eng.NumTriples() {
			t.Fatalf("shards=%d: triples %d != engine %d", n, cl.NumTriples(), eng.NumTriples())
		}
		for _, inj := range []*faultinject.Injector{nil, idleInjector(cl)} {
			cl.SetInjector(inj)
			for _, kws := range dblpQueries() {
				compareQuery(t, eng, cl, kws)
			}
		}
	}
}

func TestClusterEquivalenceLUBM(t *testing.T) {
	triples := datagen.LUBMTriples(datagen.LUBMConfig{Universities: 1, Seed: 1})
	cfg := engine.Config{K: 10}
	eng := buildEngine(t, triples, cfg)
	queries := [][]string{
		{"professor"},
		{"course", "student"},
		{"department", "university"},
		{"graduate", "course"},
		{"professor", "department"},
		{"publication", "professor"},
		{"university0"},
	}
	for _, n := range []int{1, 2, 4} {
		cl := buildCluster(t, n, triples, cfg)
		for _, inj := range []*faultinject.Injector{nil, idleInjector(cl)} {
			cl.SetInjector(inj)
			for _, kws := range queries {
				compareQuery(t, eng, cl, kws)
			}
		}
	}
}

// TestClusterEquivalenceOracle covers the Sec. IX oracle configuration:
// the coordinator explores the same summary, so the oracle must behave
// identically.
func TestClusterEquivalenceOracle(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 200, Seed: 2})
	cfg := engine.Config{K: 5, Oracle: core.OracleOn}
	eng := buildEngine(t, triples, cfg)
	cl := buildCluster(t, 3, triples, cfg)
	for _, kws := range [][]string{
		{"thanh tran", "2006"},
		{"philipp cimiano", "aifb"},
		{"keyword", "search", "graph"},
	} {
		compareQuery(t, eng, cl, kws)
	}
}

// TestClusterExecuteBudgetExhaustion pins the over-budget behavior: when
// the join-iteration budget runs out before the plan completes, the
// partially bound binding table (which contains ID-0 slots, not terms)
// must be discarded — not projected (which used to panic in dict.Term) —
// and the result marked truncated.
func TestClusterExecuteBudgetExhaustion(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 300, Seed: 1})
	cl := buildCluster(t, 3, triples, engine.Config{})
	cl.MaxSteps = 1

	cands, _, err := cl.SearchKContext(context.Background(), []string{"thanh tran", "publication"}, 0)
	if err != nil || len(cands) == 0 {
		t.Fatalf("search: %v", err)
	}
	rs, err := cl.Execute(cands[0]) // must not panic
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Truncated {
		t.Fatal("over-budget execute must report truncation")
	}
	// Any rows that do come back must be real terms (never the zero ID).
	for _, row := range rs.Rows {
		for _, term := range row {
			if term.Value == "" {
				t.Fatalf("partial row leaked: %v", row)
			}
		}
	}
}

// TestClusterExecuteLimit checks limit semantics: a limited cluster
// execute returns exactly limit rows (when more exist), each of which is
// a row of the unlimited answer set, and reports truncation.
func TestClusterExecuteLimit(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 300, Seed: 1})
	cfg := engine.Config{K: 5}
	eng := buildEngine(t, triples, cfg)
	cl := buildCluster(t, 3, triples, cfg)

	cands, _, err := cl.SearchKContext(context.Background(), []string{"publication", "title"}, 0)
	if err != nil || len(cands) == 0 {
		t.Fatalf("search: %v (%d candidates)", err, len(cands))
	}
	full, err := cl.Execute(cands[0])
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 5 {
		t.Skipf("answer set too small (%d rows) for a limit test", full.Len())
	}
	limited, err := cl.ExecuteLimitContext(context.Background(), cands[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Len() != 5 || !limited.Truncated {
		t.Fatalf("limit 5: got %d rows, truncated=%v", limited.Len(), limited.Truncated)
	}
	inFull := map[string]bool{}
	for _, row := range full.Rows {
		inFull[fmt.Sprint(row)] = true
	}
	for _, row := range limited.Rows {
		if !inFull[fmt.Sprint(row)] {
			t.Fatalf("limited row %v not in full answer set", row)
		}
	}
	// The engine under the same limit also returns 5 rows and truncates.
	ecands, _, err := eng.SearchKContext(context.Background(), []string{"publication", "title"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ers, err := eng.ExecuteLimit(ecands[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if ers.Len() != 5 || !ers.Truncated {
		t.Fatalf("engine limit 5: got %d rows, truncated=%v", ers.Len(), ers.Truncated)
	}
}
