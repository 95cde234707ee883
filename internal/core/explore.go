package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/summary"
	"repro/internal/trace"
)

// CostFunc returns the strictly positive cost c(n) of a summary-graph
// element (package scoring provides the paper's C1/C2/C3).
type CostFunc func(summary.ElemID) float64

// Options tune the exploration.
type Options struct {
	// K is the number of query candidates to compute (default 10).
	K int
	// DMax bounds the path length: a path may contain at most DMax
	// elements after its origin (default 12 — six vertex/edge hops).
	DMax int
	// MaxCursorsPerElement caps the cursors kept per (element, keyword),
	// the k of the paper's space bound k·|K|·|G| (default: K). Expansion
	// continues through saturated elements; only candidate generation at
	// them is capped.
	MaxCursorsPerElement int
	// MaxPops hard-bounds exploration steps as a safety valve against
	// adversarially dense graphs (default 2_000_000).
	MaxPops int

	// Oracle selects the Sec. IX connectivity/score oracle policy. The
	// zero value is OracleAuto: the oracle is built — and its admissible
	// bounds prune the exploration — whenever the adaptive guard says its
	// fixed construction cost (2·|K| summary-graph Dijkstras) will pay
	// for itself; see oracleEnabled. Results are identical under every
	// mode; only the work done to reach them changes.
	Oracle OracleMode

	// OracleWorkers caps the goroutines that build the oracle's
	// per-keyword distance tables concurrently (0 = one per CPU).
	OracleWorkers int

	// MinOracleSeeds is the OracleAuto guard threshold: the oracle is
	// skipped while the total seed count Σ|K_i| is below it, where its
	// fixed cost exceeds its savings (default DefaultMinOracleSeeds,
	// chosen from bench data — see DESIGN.md).
	MinOracleSeeds int

	// testOnPop, when set by tests, observes every popped cursor (used to
	// verify the ascending-cost pop order of Theorem 1).
	testOnPop func(*Cursor)
}

// OracleMode says when exploration builds the distance oracle.
type OracleMode uint8

const (
	// OracleAuto (the default) builds the oracle unless the adaptive
	// guard judges the query too small to repay the construction cost.
	OracleAuto OracleMode = iota
	// OracleOn always builds the oracle.
	OracleOn
	// OracleOff never builds it — the pre-oracle exploration, kept for
	// ablations and A/B benchmarks.
	OracleOff
)

// DefaultMinOracleSeeds is the default OracleAuto threshold on the total
// seed count Σ|K_i|. The DBLP bench sweep (k ∈ {1, 10, 50}, 2–6 keywords,
// 2–32 seeds; see DESIGN.md "Admissible pruning") showed the oracle
// repaying its 2·|K| summary-graph Dijkstras (~15–200µs) on every
// multi-keyword query — 3× on the most selective 2-seed queries, 600× on
// dense 4-keyword ones — so the default only excludes the degenerate
// floor. Workloads of ultra-selective k=1 point lookups, the one shape
// measured to lose (by ~15µs), can raise it.
const DefaultMinOracleSeeds = 2

// oracleSlack absorbs float rounding in the oracle's admissible bounds:
// a bound and the candidate cost it under-estimates sum the same element
// costs in different association orders, so they may differ by a few
// ulps. Pruning only when the bound clears the k-th cost by this margin
// keeps "results identical" exact rather than probabilistic. Element
// costs are O(1), so an absolute margin suffices.
const oracleSlack = 1e-9

// oracleEnabled resolves the oracle policy for a query's seed sets.
func (o Options) oracleEnabled(seeds [][]summary.ElemID) bool {
	switch o.Oracle {
	case OracleOn:
		return true
	case OracleOff:
		return false
	}
	// Auto: with one keyword there is nothing to bound (every h_i sum is
	// empty); with a tiny total seed count exploration is cheaper than
	// the oracle build.
	if len(seeds) < 2 {
		return false
	}
	total := 0
	for _, ki := range seeds {
		total += len(ki)
	}
	return total >= o.MinOracleSeeds
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.DMax <= 0 {
		o.DMax = 12
	}
	if o.MaxCursorsPerElement <= 0 {
		o.MaxCursorsPerElement = o.K
	}
	if o.MaxPops <= 0 {
		o.MaxPops = 2_000_000
	}
	if o.MinOracleSeeds <= 0 {
		o.MinOracleSeeds = DefaultMinOracleSeeds
	}
	return o
}

// Stats counts exploration work, reported by the benchmark harness and
// surfaced per query by the serving layer.
type Stats struct {
	CursorsCreated  int
	CursorsPopped   int
	ElementsVisited int // distinct elements with at least one registered path
	Candidates      int // subgraphs generated (before de-duplication)
	Terminated      TerminationReason
	// OracleUsed reports whether the distance oracle pruned this query —
	// i.e. whether OracleAuto's adaptive guard fired (or the mode forced
	// it on).
	OracleUsed bool
}

// TerminationReason says why the exploration stopped.
type TerminationReason uint8

const (
	// Exhausted: all distinct paths within DMax were explored (conditions
	// a/b of Sec. VI-B).
	Exhausted TerminationReason = iota
	// TopKReached: the TA bound of Algorithm 2 proved the top-k complete
	// (condition c).
	TopKReached
	// Aborted: the MaxPops safety valve fired.
	Aborted
	// Cancelled: the caller's context was cancelled (deadline or
	// explicit cancel); the result holds whatever candidates existed.
	Cancelled
)

// String names the reason.
func (r TerminationReason) String() string {
	switch r {
	case Exhausted:
		return "exhausted"
	case TopKReached:
		return "top-k reached"
	case Cancelled:
		return "cancelled"
	default:
		return "aborted"
	}
}

// cancelCheckInterval is how many popped cursors go by between context
// polls: frequent enough that a deadline cuts exploration off within
// microseconds of work, rare enough to keep the per-pop overhead at a
// single counter decrement.
const cancelCheckInterval = 1024

// Result is the outcome of an exploration.
type Result struct {
	// Subgraphs holds up to K minimal matching subgraphs in ascending
	// cost order.
	Subgraphs []*Subgraph
	// Stats describes the exploration effort.
	Stats Stats
	// Guaranteed is true when the result provably contains the k minimal
	// subgraphs (termination by TA bound or by exhaustion).
	Guaranteed bool
	// OracleBuild is the time spent constructing the distance oracle
	// (zero when the oracle was skipped). It is part of the exploration
	// wall time, reported separately so operators can see the fixed cost
	// the adaptive guard is weighing.
	OracleBuild time.Duration
}

// Explorer runs explorations and recycles their working memory. All heavy
// per-query state — the cursor slab, the priority queue, the dense
// element-state table, and the combination scratch buffers — lives in an
// exploreState held by a sync.Pool, so a warm Explorer serves queries
// without allocating on the hot path. An Explorer is safe for concurrent
// use; each in-flight exploration checks out its own state.
//
// A long-lived caller (the engine, the serving layer) should hold one
// Explorer for its lifetime. The package-level Explore/ExploreContext
// functions share a default Explorer.
type Explorer struct {
	pool sync.Pool
}

// NewExplorer returns an Explorer with an empty state pool.
func NewExplorer() *Explorer {
	ex := &Explorer{}
	ex.pool.New = func() interface{} { return new(exploreState) }
	return ex
}

var defaultExplorer = NewExplorer()

// exploreState is the recycled working memory of one exploration.
type exploreState struct {
	slab  cursorSlab
	queue cursorQueue

	// oracle holds the distance tables and Dijkstra scratch of the
	// Sec. IX oracle, rebuilt in place per query (growth-only
	// allocation, like everything else here).
	oracle DistanceOracle

	// Dense element state, indexed by ElemID (ElemIDs are dense by
	// construction: base-graph elements first, augmentation after). An
	// element's per-keyword cursor lists live at lists[elem*m : elem*m+m];
	// gen stamps make cross-query reuse O(1): a stale entry is reset the
	// first time a query touches it, never eagerly.
	gen    []uint32
	curGen uint32
	lists  [][]int32
	m      int

	// Scratch buffers for candidate generation.
	combo   []int32
	minTail []float64
	elemBuf []summary.ElemID
	sigBuf  []byte
}

// begin readies the state for a query over numElems elements and m
// keywords. Everything is reused; only growth allocates.
func (st *exploreState) begin(numElems, m int) {
	st.slab.reset()
	st.queue.reset()
	st.m = m
	if numElems > len(st.gen) {
		ng := make([]uint32, numElems)
		copy(ng, st.gen)
		st.gen = ng
	}
	if need := numElems * m; need > len(st.lists) {
		nl := make([][]int32, need)
		copy(nl, st.lists)
		st.lists = nl
	}
	st.curGen++
	if st.curGen == 0 { // uint32 wrap: invalidate everything once
		for i := range st.gen {
			st.gen[i] = 0
		}
		st.curGen = 1
	}
}

// elemState is the n(w, (C1..Cm)) bookkeeping of Algorithm 1 for one
// element: the slice of per-keyword registered-path lists, each in
// ascending cost order (a consequence of Theorem 1's pop order).
// touchElem returns it, resetting stale lists from earlier queries.
func (st *exploreState) touchElem(n summary.ElemID, stats *Stats) [][]int32 {
	base := int(n) * st.m
	lists := st.lists[base : base+st.m]
	if st.gen[n] != st.curGen {
		st.gen[n] = st.curGen
		for j := range lists {
			lists[j] = lists[j][:0]
		}
		stats.ElementsVisited++
	}
	return lists
}

// Explore runs Algorithms 1 and 2 over an augmented summary graph: it
// searches for the K cheapest K-matching subgraphs connecting the keyword
// element sets ag.Seeds() under the given cost function.
//
// If any keyword has no elements, no matching subgraph exists and an empty
// guaranteed result is returned.
func Explore(ag *summary.Augmented, cost CostFunc, opt Options) *Result {
	return defaultExplorer.ExploreContext(context.Background(), ag, cost, opt)
}

// ExploreContext is Explore under a context: the exploration loop polls
// ctx every cancelCheckInterval pops and, on cancellation, stops with
// Terminated = Cancelled, returning the candidates found so far (not
// guaranteed to be the true top-k). This is what lets a serving layer
// impose per-request deadlines on slow keyword queries.
func ExploreContext(ctx context.Context, ag *summary.Augmented, cost CostFunc, opt Options) *Result {
	return defaultExplorer.ExploreContext(ctx, ag, cost, opt)
}

// Explore runs an exploration on the explorer's recycled state.
func (ex *Explorer) Explore(ag *summary.Augmented, cost CostFunc, opt Options) *Result {
	return ex.ExploreContext(context.Background(), ag, cost, opt)
}

// ExploreContext is Explore under a context (see the package-level
// ExploreContext for the cancellation contract).
func (ex *Explorer) ExploreContext(ctx context.Context, ag *summary.Augmented, cost CostFunc, opt Options) *Result {
	opt = opt.withDefaults()
	seeds := ag.Seeds()
	m := len(seeds)
	res := &Result{}
	if m == 0 {
		res.Guaranteed = true
		res.Stats.Terminated = Exhausted
		return res
	}
	for _, ki := range seeds {
		if len(ki) == 0 {
			res.Guaranteed = true
			res.Stats.Terminated = Exhausted
			return res
		}
	}
	if ctx.Err() != nil {
		res.Stats.Terminated = Cancelled
		return res
	}

	st := ex.pool.Get().(*exploreState)
	defer ex.pool.Put(st)
	st.begin(ag.NumElements(), m)

	candidates := newCandidateList(opt.K)
	var oracle *DistanceOracle
	if opt.oracleEnabled(seeds) {
		_, obSpan := trace.StartSpan(ctx, "oracle_build")
		buildStart := time.Now()
		if err := st.oracle.Build(ctx, ag, cost, seeds, opt.OracleWorkers); err != nil {
			obSpan.End()
			res.Stats.Terminated = Cancelled
			return res
		}
		obSpan.End()
		oracle = &st.oracle
		res.OracleBuild = time.Since(buildStart)
		res.Stats.OracleUsed = true
	}

	// Algorithm 1 lines 1–6: one cursor per keyword element. Seeds keep
	// the keyword index's ranking order via their slab/sequence indices.
	for i, ki := range seeds {
		for _, k := range ki {
			idx, c := st.slab.alloc()
			*c = Cursor{Elem: k, Origin: k, parent: noCursor, Keyword: int32(i), Dist: 0, Cost: cost(k)}
			st.queue.push(c.Cost, idx)
			res.Stats.CursorsCreated++
		}
	}

	cancelCountdown := cancelCheckInterval
	for st.queue.len() > 0 {
		if res.Stats.CursorsPopped >= opt.MaxPops {
			res.Stats.Terminated = Aborted
			res.Subgraphs = candidates.results()
			return res
		}
		cancelCountdown--
		if cancelCountdown <= 0 {
			cancelCountdown = cancelCheckInterval
			if ctx.Err() != nil {
				res.Stats.Terminated = Cancelled
				res.Subgraphs = candidates.results()
				return res
			}
		}
		ent := st.queue.pop() // minCostCursor(LQ)
		c := st.slab.at(ent.idx)
		res.Stats.CursorsPopped++
		if opt.testOnPop != nil {
			opt.testOnPop(c)
		}
		n := c.Elem

		// Cost-bound pruning: once k candidates exist, a cursor whose path
		// already costs at least the k-th candidate's cost can never
		// participate in a strictly better subgraph (any subgraph
		// containing it costs at least the path's cost, and element costs
		// are strictly positive), so it is discarded without registration
		// or expansion. This preserves the top-k guarantee and caps the
		// combinatorial tail on dense summary graphs.
		if kth, full := candidates.kthCost(); full && c.Cost >= kth {
			continue
		}
		kw := int(c.Keyword)
		if oracle != nil {
			// Oracle pruning (sound): an element some keyword cannot
			// reach lies in a component where no connecting element can
			// ever form — neither can any of the cursor's descendants
			// (adjacency keeps components).
			if !oracle.Reachable(n) {
				continue
			}
			// Completion-bound pruning (sound): wherever this cursor's
			// paths eventually meet the other keywords', the candidate
			// costs at least c.Cost + g_i(n). Once that clears the k-th
			// candidate the whole subtree under this cursor is dead —
			// not just its registration at n.
			if kth, full := candidates.kthCost(); full && c.Cost+oracle.Completion(kw, n) > kth+oracleSlack {
				continue
			}
		}

		if int(c.Dist) < opt.DMax {
			// Register the path at n (line 11) and generate the new
			// candidate subgraphs it completes (Algorithm 2).
			lists := st.touchElem(n, &res.Stats)
			registered := false
			if len(lists[kw]) < opt.MaxCursorsPerElement {
				// Oracle gating (sound): candidates formed at n with this
				// path cost at least c.Cost + Σ_{j≠i} d_j(n) — a tighter
				// bound than g_i(n) when n itself is the meeting element;
				// if it already exceeds the k-th candidate the
				// registration (and the combination enumeration it would
				// feed) is skipped. The bound only loosens as kth
				// shrinks, never the other way.
				if oracle == nil {
					lists[kw] = append(lists[kw], ent.idx)
					registered = true
				} else if kth, full := candidates.kthCost(); !full || c.Cost+oracle.Remaining(kw, n) <= kth+oracleSlack {
					lists[kw] = append(lists[kw], ent.idx)
					registered = true
				}
			}

			if registered {
				st.generateCandidates(lists, ent.idx, candidates, &res.Stats)
			}

			// Expand to neighbors (lines 13–23). Children at distance
			// DMax could never be registered (line 10 requires d < dmax),
			// so they are not enqueued at all.
			if int(c.Dist)+1 < opt.DMax {
				parentElem := summary.NoElem
				if c.parent != noCursor {
					parentElem = st.slab.at(c.parent).Elem
				}
				for _, nb := range ag.Neighbors(n) {
					if nb == parentElem {
						continue // line 13: skip the element just visited
					}
					if st.slab.onPath(ent.idx, nb) {
						continue // line 17: no cyclic paths
					}
					childCost := c.Cost + cost(nb)
					// Completion-bound gating at creation: a child whose
					// admissible bound already exceeds the k-th candidate
					// would be discarded at its own pop — don't pay the
					// slab slot and the heap traffic to find that out.
					// This is where the bound cuts the cursor explosion
					// of dense many-keyword queries.
					if oracle != nil {
						if kth, full := candidates.kthCost(); full && childCost+oracle.Completion(kw, nb) > kth+oracleSlack {
							continue
						}
					}
					idx, child := st.slab.alloc()
					*child = Cursor{
						Elem:    nb,
						Origin:  c.Origin,
						parent:  ent.idx,
						Keyword: c.Keyword,
						Dist:    c.Dist + 1,
						Cost:    childCost,
					}
					st.queue.push(child.Cost, idx)
					res.Stats.CursorsCreated++
				}
			}
		}

		// Algorithm 2 termination test: k candidates exist and the k-th
		// costs less than any possible future subgraph.
		if kth, ok := candidates.kthCost(); ok {
			if lowest, any := st.queue.min(); !any || kth < lowest {
				res.Stats.Terminated = TopKReached
				res.Subgraphs = candidates.results()
				res.Guaranteed = true
				return res
			}
		}
	}

	res.Stats.Terminated = Exhausted
	res.Subgraphs = candidates.results()
	res.Guaranteed = true
	return res
}

// generateCandidates implements the cursorCombinations step of Algorithm 2
// for a newly registered cursor (slab index cIdx) at an element with
// per-keyword lists `lists`: if every other keyword already has at least
// one path to the element, each combination of the new cursor with one
// cursor per other keyword yields a candidate subgraph. Generating
// combinations only for the new cursor produces every combination exactly
// once over the run.
//
// The enumeration is cost-bounded: per-keyword cursor lists are in
// ascending cost order (Theorem 1), so as soon as the partial sum plus
// the cheapest possible completion exceeds the current k-th candidate,
// the remaining combinations of that branch are skipped — they could only
// produce candidates the list would immediately discard.
func (st *exploreState) generateCandidates(lists [][]int32, cIdx int32, out *candidateList, stats *Stats) {
	m := st.m
	c := st.slab.at(cIdx)
	kw := int(c.Keyword)
	for i := 0; i < m; i++ {
		if i != kw && len(lists[i]) == 0 {
			return // the element is not (yet) a connecting element
		}
	}
	// minTail[i] = sum of the cheapest cursor costs of keywords i..m-1
	// (with the new cursor's own cost fixed for its keyword).
	if cap(st.minTail) < m+1 {
		st.minTail = make([]float64, m+1)
	}
	minTail := st.minTail[:m+1]
	minTail[m] = 0
	for i := m - 1; i >= 0; i-- {
		if i == kw {
			minTail[i] = minTail[i+1] + c.Cost
		} else {
			minTail[i] = minTail[i+1] + st.slab.at(lists[i][0]).Cost
		}
	}
	if cap(st.combo) < m {
		st.combo = make([]int32, m)
	}
	combo := st.combo[:m]
	combo[kw] = cIdx
	st.combine(lists, 0, 0, kw, c.Cost, minTail, combo, out, stats)
}

// combine recursively fills combo[i..m) and emits complete combinations.
func (st *exploreState) combine(lists [][]int32, i int, partial float64, kw int, cCost float64, minTail []float64, combo []int32, out *candidateList, stats *Stats) {
	if i == st.m {
		st.emitCandidate(combo, out, stats)
		return
	}
	if i == kw {
		st.combine(lists, i+1, partial+cCost, kw, cCost, minTail, combo, out, stats)
		return
	}
	for _, other := range lists[i] {
		oc := st.slab.at(other).Cost
		if kth, full := out.kthCost(); full && partial+oc+minTail[i+1] > kth {
			break // ascending list: no further combination can improve
		}
		combo[i] = other
		st.combine(lists, i+1, partial+oc, kw, cCost, minTail, combo, out, stats)
	}
}

// emitCandidate merges one cursor per keyword into a candidate subgraph
// (Algorithm 2 line 5; the cursors share the same final element) and
// offers it to the candidate list. The element set, cost, and signature
// are computed on recycled scratch first; the Subgraph (paths included) is
// only materialized when the list would actually accept it, so duplicates
// and over-budget candidates cost no allocation.
func (st *exploreState) emitCandidate(combo []int32, out *candidateList, stats *Stats) {
	stats.Candidates++
	st.elemBuf = st.elemBuf[:0]
	total := 0.0
	for _, idx := range combo {
		cur := st.slab.at(idx)
		total += cur.Cost
		for i := idx; i != noCursor; i = st.slab.at(i).parent {
			st.elemBuf = append(st.elemBuf, st.slab.at(i).Elem)
		}
	}
	st.elemBuf = sortDedupElems(st.elemBuf)
	st.sigBuf = appendSignature(st.sigBuf[:0], st.elemBuf)
	if !out.wouldAccept(st.sigBuf, total) {
		return
	}
	g := &Subgraph{
		Elements:  append([]summary.ElemID(nil), st.elemBuf...),
		Paths:     make([][]summary.ElemID, len(combo)),
		Connector: st.slab.at(combo[0]).Elem,
		Cost:      total,
	}
	for i, idx := range combo {
		g.Paths[i] = st.slab.path(idx, nil)
	}
	out.add(g)
}
