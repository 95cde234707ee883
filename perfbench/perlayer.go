package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
)

type metricSpec struct{ name, unit string }

// gatedMetrics are the end-to-end metrics BENCHMARK.json bounds: the ones
// every workload exercises and whose run-to-run spread stays within a
// bound (README.md, "End-to-end metrics"). The others are in the report.
var gatedMetrics = []string{"setup_s", "heap_mb", "search_p50_ms"}

// perLayerMetrics are the traced run's metrics, named by module. A layer
// a workload does not exercise reads 0.
var perLayerMetrics = []metricSpec{
	{"loadgen.late_p99_ms", "ms"},
	{"server.self_p50_ms", "ms"}, {"server.self_p99_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"}, {"server.shared_ratio", "ratio"},
	{"server.resp_bytes_per_op", "B"}, {"server.rejected_ratio", "ratio"},
	{"engine.search_ms", "ms"}, {"engine.search_busy_s", "s"}, {"engine.execute_ms", "ms"},
	{"keywordindex.lookup_ms", "ms"}, {"keywordindex.lookup_share", "ratio"},
	{"keywordindex.matches_per_keyword", "count"}, {"keywordindex.unmatched_ratio", "ratio"},
	{"keywordindex.allocs_per_search", "count"},
	{"summary.augment_ms", "ms"},
	{"core.oracle_ms", "ms"}, {"core.explore_ms", "ms"}, {"core.explore_share", "ratio"},
	{"core.cursors_popped", "count"}, {"core.useful_ratio", "ratio"},
	{"query.map_ms", "ms"}, {"query.equivalent_calls", "count"}, {"query.dup_ratio", "ratio"},
	{"exec.execute_ms", "ms"}, {"exec.join_iters_per_row", "count"},
	{"exec.examined_per_row", "count"}, {"exec.allocs_per_execute", "count"},
	{"shard.search_ms", "ms"}, {"shard.execute_ms", "ms"},
	{"shard.search_vs_engine", "ratio"}, {"shard.execute_vs_engine", "ratio"},
	{"shard.retries_hedges", "count"},
	{"ingest.append_ms", "ms"}, {"ingest.fsync_ms", "ms"},
	{"ingest.swap_p50_ms", "ms"}, {"ingest.swap_max_ms", "ms"}, {"ingest.swaps", "count"},
	{"ingest.rebuild_ratio", "ratio"}, {"ingest.checkpoint_ms", "ms"}, {"ingest.checkpoints", "count"},
	{"ingest.wal_bytes_per_triple", "B"}, {"ingest.invalidated_per_swap", "count"},
	{"ingest.reboot_ms", "ms"},
	{"snapshot.load_ms", "ms"},
	{"gc.pause_p99_ms", "ms"}, {"gc.alloc_kb_per_op", "KB"},
	{"trace.search_p50_ms", "ms"}, {"trace.capacity_rps", "ops/s"},
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.name == name {
			return s.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// div returns a/b, or NaN (not reported) when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// perLayer computes the traced run's per-layer metrics: from the spans
// the load left, the live store's hooks, the runtime's GC accounting, and
// a serial stage-by-stage replay of the run's searches and executes.
func (st *runState) perLayer() error {
	r := st.res
	set := func(name string, v float64) { r.set(name, v, unitOf(perLayerMetrics, name)) }
	all := append(append([]sample(nil), st.open...), st.closed...)

	var late []time.Duration
	for _, s := range st.open {
		late = append(late, s.late())
	}
	set("loadgen.late_p99_ms", percentile(late, 99))

	// Server and backend spans.
	if st.srv != nil {
		self := st.tr.selfTimes(func(n string) bool { return strings.HasPrefix(n, "server/") })
		set("server.self_p50_ms", percentile(self, 50))
		set("server.self_p99_ms", percentile(self, 99))
		var searches, hits, shared, rejected, bytes, calls float64
		for _, s := range all {
			if s.Search != nil {
				searches++
				if s.Cached {
					hits++
				}
				if s.Shared {
					shared++
				}
			}
			if s.Rejected {
				rejected++
			}
			bytes += float64(s.Bytes)
			calls += float64(s.Calls)
		}
		set("server.cache_hit_ratio", div(hits, searches))
		set("server.shared_ratio", div(shared, searches))
		set("server.resp_bytes_per_op", div(bytes, calls))
		set("server.rejected_ratio", div(rejected, float64(len(all))))
	}
	spanStats := func(name string) (n int, total time.Duration) {
		for _, s := range st.tr.spans {
			if s.Name == name {
				n++
				total += s.dur()
			}
		}
		return n, total
	}
	if n, tot := spanStats("engine.search"); n > 0 {
		set("engine.search_ms", ms(tot)/float64(n))
		set("engine.search_busy_s", tot.Seconds())
	}
	if n, tot := spanStats("engine.execute"); n > 0 {
		set("engine.execute_ms", ms(tot)/float64(n))
	}
	if n, tot := spanStats("shard.search"); n > 0 {
		set("shard.search_ms", ms(tot)/float64(n))
	}
	if n, tot := spanStats("shard.execute"); n > 0 {
		set("shard.execute_ms", ms(tot)/float64(n))
	}
	if st.timed != nil && st.be.cluster != nil {
		set("shard.retries_hedges", float64(st.timed.retriesHedges.Load()))
	}

	// The live store's own hooks.
	if o := st.lobs; o != nil {
		set("ingest.append_ms", percentile(o.appends, 50))
		set("ingest.fsync_ms", percentile(o.fsync, 50))
		var swapDur []time.Duration
		rebuilt, changed := 0, 0
		for _, s := range o.swaps {
			swapDur = append(swapDur, s.Duration)
			if s.SummaryRebuilt || s.KeywordsRebuilt {
				rebuilt++
			}
			changed += len(s.ChangedKeywords)
		}
		set("ingest.swaps", float64(len(o.swaps)))
		if len(swapDur) > 0 {
			set("ingest.swap_p50_ms", percentile(swapDur, 50))
			set("ingest.swap_max_ms", percentile(swapDur, 100))
			set("ingest.rebuild_ratio", float64(rebuilt)/float64(len(o.swaps)))
			set("ingest.invalidated_per_swap", float64(changed)/float64(len(o.swaps)))
		}
		set("ingest.checkpoints", float64(len(o.checkpoints)))
		if len(o.checkpoints) > 0 {
			var tot time.Duration
			for _, d := range o.checkpoints {
				tot += d
			}
			set("ingest.checkpoint_ms", ms(tot)/float64(len(o.checkpoints)))
		}
		set("ingest.wal_bytes_per_triple", div(float64(st.walBytes), float64(st.ingested())))
	}
	if st.reboot != nil {
		set("ingest.reboot_ms", ms(st.reboot.dur))
	}
	if st.be.boot != nil && st.be.boot.SnapshotInfo != nil {
		set("snapshot.load_ms", ms(st.be.boot.SnapshotInfo.LoadDuration))
	}

	set("gc.pause_p99_ms", st.gcStats.pauseQuantileMS(0.99))
	set("gc.alloc_kb_per_op", div(float64(st.gcStats.allocBytes)/1024, float64(len(all))))
	if m, ok := r.Metrics["search_p50_ms"]; ok {
		set("trace.search_p50_ms", m.Value)
	}
	if m, ok := r.Metrics["capacity_rps"]; ok {
		set("trace.capacity_rps", m.Value)
	}
	if err := st.replay(all); err != nil {
		return err
	}
	r.DesignViolations = designViolations(st.w.Name, r.Metrics)
	return nil
}

// designViolations checks that a traced run did what its workload was
// designed to exercise.
func designViolations(workload string, metrics map[string]metric) []string {
	get := func(n string) float64 { return metrics[n].Value }
	var out []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	switch workload {
	case "search_miss":
		check(get("server.cache_hit_ratio") <= 0.01, "search cache hit ratio %.3f, want ≈0", get("server.cache_hit_ratio"))
	case "session_hit":
		check(get("server.cache_hit_ratio") >= 0.9, "search cache hit ratio %.3f, want ≥ 0.9", get("server.cache_hit_ratio"))
	case "ingest_rw":
		check(get("ingest.swaps") >= 2, "%g epoch swaps, want several", get("ingest.swaps"))
		check(get("ingest.checkpoints") >= 1, "%g checkpoints, want at least one", get("ingest.checkpoints"))
	case "cluster_miss":
		check(get("shard.retries_hedges") == 0, "%g shard retries and hedges without chaos, want 0", get("shard.retries_hedges"))
	}
	return out
}

// replay runs the run's first searches and executes through the stages
// and asserts that the replay computes what engine.SearchKContext does.
func (st *runState) replay(all []sample) error {
	eng := st.replayEng
	if eng == nil {
		return fmt.Errorf("no engine to replay on")
	}
	ctx := context.Background()
	x := exec.New(eng.Store())
	x.MaxRows = eng.Config().MaxExecRows
	ex := core.NewExplorer()
	var m stageStats
	var engSearch, engExec, clSearch, clExec time.Duration
	seen := map[string][]*engine.QueryCandidate{}
	replayed := func(kws []string, k int) ([]*engine.QueryCandidate, error) {
		key := fmt.Sprintf("%d\x00%s", k, strings.Join(kws, "\x00"))
		if c, ok := seen[key]; ok {
			return c, nil
		}
		cands, unmatched := replaySearch(eng, ex, kws, k, &m)
		t0 := time.Now()
		want, _, err := eng.SearchKContext(ctx, kws, k)
		engSearch += time.Since(t0)
		var um *engine.UnmatchedKeywordsError
		switch {
		case errors.As(err, &um):
			if strings.Join(um.Keywords, "\x00") != strings.Join(unmatched, "\x00") {
				return nil, fmt.Errorf("replay %q: unmatched %q, engine %q", kws, unmatched, um.Keywords)
			}
		case err != nil:
			return nil, err
		case unmatched != nil:
			return nil, fmt.Errorf("replay %q: unmatched %q, engine matched all", kws, unmatched)
		default:
			if err := sameCandidates(cands, want); err != nil {
				return nil, fmt.Errorf("replay %q: %v", kws, err)
			}
		}
		if st.be.cluster != nil {
			t0 = time.Now()
			st.be.cluster.SearchKContext(ctx, kws, k)
			clSearch += time.Since(t0)
		}
		seen[key] = cands
		return cands, nil
	}
	// candidates of a search the server answered from its cache: the
	// search layers did no work for it, so it is not replayed, but an
	// execute that followed it is.
	cached := func(kws []string, k int) []*engine.QueryCandidate {
		key := fmt.Sprintf("%d\x00%s", k, strings.Join(kws, "\x00"))
		if _, ok := seen[key]; !ok {
			seen[key], _, _ = eng.SearchKContext(ctx, kws, k)
		}
		return seen[key]
	}
	var errs []string
	execs := 0
	for _, s := range all {
		if s.Search == nil {
			continue
		}
		wantSearch := !s.Cached && m.searches < replayLimit
		wantExec := s.Exec != nil && execs < replayLimit
		var cands []*engine.QueryCandidate
		switch {
		case wantSearch:
			var err error
			if cands, err = replayed(s.Search.Keywords, s.Search.K); err != nil {
				errs = append(errs, err.Error())
				continue
			}
		case wantExec:
			cands = cached(s.Search.Keywords, s.Search.K)
		}
		if !wantExec || s.Exec.Rank >= len(cands) {
			continue
		}
		execs++
		c := cands[s.Exec.Rank]
		if err := replayExecute(x, c, s.Exec.Limit, &m); err != nil {
			errs = append(errs, err.Error())
		}
		t0 := time.Now()
		eng.ExecuteLimitContext(ctx, c, s.Exec.Limit)
		engExec += time.Since(t0)
		if st.be.cluster != nil {
			t0 = time.Now()
			st.be.cluster.ExecuteLimitContext(ctx, c, s.Exec.Limit)
			clExec += time.Since(t0)
		}
	}
	r := st.res
	for _, e := range errs {
		r.Failed++
		r.Correct = false
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, "wrong answer: "+e)
		}
	}

	set := func(name string, v float64) { r.set(name, v, unitOf(perLayerMetrics, name)) }
	n := float64(m.searches)
	stagesTotal := m.lookup + m.augment + m.oracle + m.explore + m.mapping
	set("keywordindex.lookup_ms", div(ms(m.lookup), n))
	set("keywordindex.lookup_share", div(float64(m.lookup), float64(stagesTotal)))
	set("keywordindex.matches_per_keyword", div(float64(m.matches), float64(m.keywords-m.unmatched)))
	set("keywordindex.unmatched_ratio", div(float64(m.unmatched), float64(m.keywords)))
	set("keywordindex.allocs_per_search", div(float64(m.lookupAllocs), n))
	if m.full > 0 {
		// Stages past lookup run only for fully matched searches.
		full := float64(m.full)
		set("summary.augment_ms", div(ms(m.augment), full))
		set("core.oracle_ms", div(ms(m.oracle), full))
		set("core.explore_ms", div(ms(m.explore), full))
		set("core.explore_share", div(float64(m.explore+m.oracle), float64(stagesTotal)))
		set("core.cursors_popped", div(float64(m.popped), full))
		set("core.useful_ratio", div(float64(m.subgraphs), float64(m.generated)))
		set("query.map_ms", div(ms(m.mapping), full))
		set("query.equivalent_calls", div(float64(m.equivalentCalls), full))
		set("query.dup_ratio", div(float64(m.dups), float64(m.mapped)))
	}
	if m.executes > 0 {
		set("exec.execute_ms", ms(m.execute)/float64(m.executes))
		set("exec.join_iters_per_row", div(float64(m.joinIters), float64(m.rows)))
		set("exec.examined_per_row", div(float64(m.examined), float64(m.rows)))
		set("exec.allocs_per_execute", float64(m.execAllocs)/float64(m.executes))
	}
	if st.be.cluster != nil {
		set("shard.search_vs_engine", div(float64(clSearch), float64(engSearch)))
		set("shard.execute_vs_engine", div(float64(clExec), float64(engExec)))
	}
	return nil
}
