package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/keywordindex"
	"repro/internal/query"
	"repro/internal/scoring"
	"repro/internal/summary"
)

// replayLimit caps how many searches and executes of a run the traced
// run replays stage by stage (serially, after the load).
const replayLimit = 200

// stageStats sums what the stage replay measured.
type stageStats struct {
	searches, full, executes int // full: searches whose keywords all matched

	lookup, augment, oracle, explore, mapping time.Duration
	lookupAllocs                              uint64
	keywords, unmatched, matches              int
	popped, subgraphs, generated              int
	mapped, dups, equivalentCalls             int

	execute             time.Duration
	execAllocs          uint64
	joinIters, examined int64
	rows                int
}

// heapObjects reads the process's cumulative heap allocation count.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replaySearch runs one search through the pipeline's stages in
// engine.ComputeCandidates order, timing each call into its module, and
// returns the candidates it computed (nil with the unmatched keywords
// when some keyword matches nothing).
func replaySearch(e *engine.Engine, ex *core.Explorer, kws []string, k int, m *stageStats) ([]*engine.QueryCandidate, []string) {
	cfg := e.Config()
	kwix, sum := e.KeywordIndex(), e.Summary()
	opts := keywordindex.LookupOptions{
		MaxMatches:      cfg.MaxMatchesPerKeyword,
		DisableFuzzy:    cfg.DisableFuzzy,
		DisableSemantic: cfg.DisableSemantic,
	}
	m.searches++

	t0, a0 := time.Now(), heapObjects()
	matches := make([][]summary.Match, len(kws))
	specs := make([]*engine.FilterSpec, len(kws))
	for i, kw := range kws {
		if spec, ok := engine.ParseFilterKeyword(kw); ok {
			specs[i] = &spec
			matches[i] = kwix.NumericAttrMatches()
			continue
		}
		matches[i] = kwix.LookupOpts(kw, opts)
	}
	m.lookup += time.Since(t0)
	m.lookupAllocs += heapObjects() - a0
	var unmatched []string
	for i, ms := range matches {
		m.keywords++
		m.matches += len(ms)
		if len(ms) == 0 {
			m.unmatched++
			unmatched = append(unmatched, kws[i])
		}
	}
	if len(unmatched) > 0 {
		return nil, unmatched
	}
	m.full++

	t0 = time.Now()
	ag := sum.AugmentWorkers(matches, cfg.Parallelism)
	m.augment += time.Since(t0)

	scorer := scoring.New(cfg.Scoring, ag)
	t0 = time.Now()
	res := ex.ExploreContext(context.Background(), ag, scorer.ElementCost, core.Options{
		K: k, DMax: cfg.DMax, Oracle: cfg.Oracle, OracleWorkers: cfg.Parallelism,
	})
	m.explore += time.Since(t0) - res.OracleBuild
	m.oracle += res.OracleBuild
	m.popped += res.Stats.CursorsPopped
	m.generated += res.Stats.Candidates
	m.subgraphs += len(res.Subgraphs)

	t0 = time.Now()
	seeds := ag.Seeds()
	var cands []*engine.QueryCandidate
	for _, g := range res.Subgraphs {
		q, vars := query.FromSubgraphVars(ag, g)
		if len(q.Atoms) == 0 {
			continue
		}
		m.mapped++
		for i, spec := range specs {
			if spec == nil {
				continue
			}
			for _, seed := range seeds[i] {
				if !g.Contains(seed) {
					continue
				}
				if el := ag.Element(seed); el.Kind == summary.AttrEdge {
					if v, ok := vars[el.To]; ok {
						q.AddFilter(query.Filter{Var: v, Op: spec.Op, Value: spec.Value})
					}
				}
			}
		}
		dup := false
		for _, prev := range cands {
			m.equivalentCalls++
			if query.Equivalent(prev.Query, q) {
				dup = true
				break
			}
		}
		if dup {
			m.dups++
			continue
		}
		cands = append(cands, &engine.QueryCandidate{Query: q, Cost: q.Cost})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })
	m.mapping += time.Since(t0)
	return cands, nil
}

// replayExecute evaluates a candidate on an exec engine over the
// engine's store, timing the call.
func replayExecute(x *exec.Engine, c *engine.QueryCandidate, limit int, m *stageStats) error {
	t0, a0 := time.Now(), heapObjects()
	rs, err := x.ExecuteLimitContext(context.Background(), c.Query, limit)
	m.execute += time.Since(t0)
	m.execAllocs += heapObjects() - a0
	if err != nil {
		return err
	}
	m.executes++
	m.joinIters += rs.Stats.JoinIterations
	m.examined += rs.Stats.RowsExamined
	m.rows += rs.Len()
	return nil
}

// sameCandidates reports whether the replay computed what
// engine.SearchKContext computes: SPARQL and cost, in order.
func sameCandidates(a, b []*engine.QueryCandidate) error {
	if len(a) != len(b) {
		return fmt.Errorf("replay computed %d candidates, the engine %d", len(a), len(b))
	}
	for i := range a {
		if a[i].SPARQL() != b[i].SPARQL() || a[i].Cost != b[i].Cost {
			return fmt.Errorf("replay candidate %d differs from the engine's", i)
		}
	}
	return nil
}
