package core

// Golden-output tests for the allocation-free exploration core: the
// optimized Explore must produce *identical* top-k subgraphs — order,
// costs, element sets, connectors, and per-keyword paths included — to
// the straightforward reference implementation of Algorithms 1+2 kept in
// this file (pointer-linked cursors, container/heap, map-backed element
// state: the shape of the code before the slab/implicit-heap/dense-state
// rewrite). The comparison runs over the paper's running example and over
// DBLP- and LUBM-shaped workloads, with and without the distance oracle,
// so any behavioral drift in the hot path fails loudly.

import (
	"container/heap"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/scoring"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/thesaurus"
)

// --- reference implementation (pre-optimization shape) ---

type refCursor struct {
	Elem    summary.ElemID
	Keyword int
	Origin  summary.ElemID
	Parent  *refCursor
	Dist    int
	Cost    float64
	seq     int
}

func (c *refCursor) path() []summary.ElemID {
	var rev []summary.ElemID
	for cur := c; cur != nil; cur = cur.Parent {
		rev = append(rev, cur.Elem)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func (c *refCursor) onPath(e summary.ElemID) bool {
	for cur := c; cur != nil; cur = cur.Parent {
		if cur.Elem == e {
			return true
		}
	}
	return false
}

type refQueue []*refCursor

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].Cost != q[j].Cost {
		return q[i].Cost < q[j].Cost
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refCursor)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	c := old[n-1]
	*q = old[:n-1]
	return c
}

func refMerge(cursors []*refCursor) *Subgraph {
	g := &Subgraph{
		Paths:     make([][]summary.ElemID, len(cursors)),
		Connector: cursors[0].Elem,
	}
	set := map[summary.ElemID]bool{}
	for i, c := range cursors {
		g.Paths[i] = c.path()
		g.Cost += c.Cost
		for _, e := range g.Paths[i] {
			set[e] = true
		}
	}
	for e := range set {
		g.Elements = append(g.Elements, e)
	}
	sort.Slice(g.Elements, func(i, j int) bool { return g.Elements[i] < g.Elements[j] })
	return g
}

type refElemState struct{ lists [][]*refCursor }

func refGenerate(st *refElemState, c *refCursor, out *candidateList, stats *Stats) {
	m := len(st.lists)
	for i := 0; i < m; i++ {
		if i != c.Keyword && len(st.lists[i]) == 0 {
			return
		}
	}
	minTail := make([]float64, m+1)
	for i := m - 1; i >= 0; i-- {
		if i == c.Keyword {
			minTail[i] = minTail[i+1] + c.Cost
		} else {
			minTail[i] = minTail[i+1] + st.lists[i][0].Cost
		}
	}
	combo := make([]*refCursor, m)
	combo[c.Keyword] = c
	var rec func(i int, partial float64)
	rec = func(i int, partial float64) {
		if i == m {
			out.add(refMerge(combo))
			stats.Candidates++
			return
		}
		if i == c.Keyword {
			rec(i+1, partial+c.Cost)
			return
		}
		for _, other := range st.lists[i] {
			if kth, full := out.kthCost(); full && partial+other.Cost+minTail[i+1] > kth {
				break
			}
			combo[i] = other
			rec(i+1, partial+other.Cost)
		}
	}
	rec(0, 0)
}

// refExplore is the pre-rewrite Explore, preserved as the oracle of truth.
func refExplore(ag *summary.Augmented, cost CostFunc, opt Options) *Result {
	opt = opt.withDefaults()
	seeds := ag.Seeds()
	m := len(seeds)
	res := &Result{}
	if m == 0 {
		res.Guaranteed = true
		return res
	}
	for _, ki := range seeds {
		if len(ki) == 0 {
			res.Guaranteed = true
			return res
		}
	}
	var queue refQueue
	states := make(map[summary.ElemID]*refElemState)
	candidates := newCandidateList(opt.K)
	var oracle *DistanceOracle
	if opt.oracleEnabled(seeds) {
		oracle = NewDistanceOracle(ag, cost, seeds)
		res.Stats.OracleUsed = true
	}
	for i, ki := range seeds {
		for _, k := range ki {
			heap.Push(&queue, &refCursor{Elem: k, Keyword: i, Origin: k, Cost: cost(k), seq: res.Stats.CursorsCreated})
			res.Stats.CursorsCreated++
		}
	}
	for queue.Len() > 0 {
		if res.Stats.CursorsPopped >= opt.MaxPops {
			res.Stats.Terminated = Aborted
			res.Subgraphs = candidates.results()
			return res
		}
		c := heap.Pop(&queue).(*refCursor)
		res.Stats.CursorsPopped++
		n := c.Elem
		if kth, full := candidates.kthCost(); full && c.Cost >= kth {
			continue
		}
		if oracle != nil {
			if !oracle.Reachable(n) {
				continue
			}
			if kth, full := candidates.kthCost(); full && c.Cost+oracle.Completion(c.Keyword, n) > kth+oracleSlack {
				continue
			}
		}
		if c.Dist < opt.DMax {
			st := states[n]
			if st == nil {
				st = &refElemState{lists: make([][]*refCursor, m)}
				states[n] = st
				res.Stats.ElementsVisited++
			}
			registered := false
			if len(st.lists[c.Keyword]) < opt.MaxCursorsPerElement {
				if oracle == nil {
					st.lists[c.Keyword] = append(st.lists[c.Keyword], c)
					registered = true
				} else if kth, full := candidates.kthCost(); !full || c.Cost+oracle.Remaining(c.Keyword, n) <= kth+oracleSlack {
					st.lists[c.Keyword] = append(st.lists[c.Keyword], c)
					registered = true
				}
			}
			if registered {
				refGenerate(st, c, candidates, &res.Stats)
			}
			if c.Dist+1 < opt.DMax {
				parentElem := summary.NoElem
				if c.Parent != nil {
					parentElem = c.Parent.Elem
				}
				for _, nb := range ag.Neighbors(n) {
					if nb == parentElem || c.onPath(nb) {
						continue
					}
					childCost := c.Cost + cost(nb)
					if oracle != nil {
						if kth, full := candidates.kthCost(); full && childCost+oracle.Completion(c.Keyword, nb) > kth+oracleSlack {
							continue
						}
					}
					heap.Push(&queue, &refCursor{
						Elem: nb, Keyword: c.Keyword, Origin: c.Origin, Parent: c,
						Dist: c.Dist + 1, Cost: childCost, seq: res.Stats.CursorsCreated,
					})
					res.Stats.CursorsCreated++
				}
			}
		}
		if kth, ok := candidates.kthCost(); ok {
			if queue.Len() == 0 || kth < queue[0].Cost {
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

// --- comparison helpers ---

func assertIdenticalResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Guaranteed != want.Guaranteed {
		t.Fatalf("%s: Guaranteed = %v, want %v", label, got.Guaranteed, want.Guaranteed)
	}
	if len(got.Subgraphs) != len(want.Subgraphs) {
		t.Fatalf("%s: %d subgraphs, want %d", label, len(got.Subgraphs), len(want.Subgraphs))
	}
	for i := range want.Subgraphs {
		g, w := got.Subgraphs[i], want.Subgraphs[i]
		if !almostEq(g.Cost, w.Cost) {
			t.Fatalf("%s: subgraph %d cost %v, want %v", label, i, g.Cost, w.Cost)
		}
		if g.Connector != w.Connector {
			t.Fatalf("%s: subgraph %d connector %v, want %v", label, i, g.Connector, w.Connector)
		}
		if !elemsEqual(g.Elements, w.Elements) {
			t.Fatalf("%s: subgraph %d elements %v, want %v", label, i, g.Elements, w.Elements)
		}
		if len(g.Paths) != len(w.Paths) {
			t.Fatalf("%s: subgraph %d has %d paths, want %d", label, i, len(g.Paths), len(w.Paths))
		}
		for j := range w.Paths {
			if !elemsEqual(g.Paths[j], w.Paths[j]) {
				t.Fatalf("%s: subgraph %d path %d = %v, want %v", label, i, j, g.Paths[j], w.Paths[j])
			}
		}
	}
}

func elemsEqual(a, b []summary.ElemID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// exploreWorkload maps each keyword query over a built graph and compares
// optimized vs reference exploration under several configurations.
func exploreWorkload(t *testing.T, name string, sg *summary.Graph, kwix *keywordindex.Index, queries [][]string) {
	t.Helper()
	ex := NewExplorer() // one warm explorer across the whole workload, as the engine holds it
	for _, kws := range queries {
		matches := kwix.LookupAll(kws, keywordindex.LookupOptions{MaxMatches: 8})
		usable := true
		for _, ms := range matches {
			if len(ms) == 0 {
				usable = false
			}
		}
		if !usable {
			continue
		}
		ag := sg.Augment(matches)
		scorer := scoring.New(scoring.Matching, ag)
		for _, opt := range []Options{
			{K: 10, DMax: 10}, // OracleAuto: the serving default
			{K: 3, DMax: 10},
			{K: 10, DMax: 10, Oracle: OracleOn},  // forced on
			{K: 10, DMax: 10, Oracle: OracleOff}, // pre-oracle exploration
		} {
			label := name + "/" + kws[0]
			got := ex.Explore(ag, scorer.ElementCost, opt)
			want := refExplore(ag, scorer.ElementCost, opt)
			assertIdenticalResults(t, label, got, want)
			if got.Stats != want.Stats {
				t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
			}
		}
	}
}

func TestGoldenAgainstReferenceDBLP(t *testing.T) {
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 500, Seed: 7}))
	g := graph.Build(st)
	sg := summary.Build(g)
	kwix := keywordindex.Build(g, thesaurus.Default())
	exploreWorkload(t, "dblp", sg, kwix, [][]string{
		{"thanh tran", "publication"},
		{"philipp cimiano", "aifb"},
		{"article", "cites", "inproceedings"},
		{"author", "institute"},
		{"publication", "1999"},
		{"thanh tran", "aifb", "publication", "2005", "conference"},
	})
}

func TestGoldenAgainstReferenceLUBM(t *testing.T) {
	st := store.New()
	st.AddAll(datagen.LUBMTriples(datagen.LUBMConfig{Universities: 1, Seed: 7}))
	g := graph.Build(st)
	sg := summary.Build(g)
	kwix := keywordindex.Build(g, thesaurus.Default())
	exploreWorkload(t, "lubm", sg, kwix, [][]string{
		{"professor", "course"},
		{"student", "advisor"},
		{"publication", "professor"},
		{"department", "university"},
	})
}

// TestGoldenRunningExample pins the running example's exact top-5 cost
// sequence under C1 — a literal golden value guarding against drift that
// a reference-equivalence test alone (which would drift with the code)
// could miss.
func TestGoldenRunningExample(t *testing.T) {
	ag, _ := fig1Aug(t)
	res := Explore(ag, c1(ag), Options{K: 5})
	// The Fig. 1c interpretation (cost 13 under C1) first, then the next
	// four decompositions in ascending cost; values verified against the
	// reference implementation above at the time this golden was cut.
	want := []float64{13, 16, 17, 18, 18}
	if len(res.Subgraphs) != len(want) {
		t.Fatalf("got %d subgraphs, want %d: %v", len(res.Subgraphs), len(want), costsOf(res.Subgraphs))
	}
	for i, w := range want {
		if !almostEq(res.Subgraphs[i].Cost, w) {
			t.Fatalf("cost[%d] = %v, want %v (all: %v)", i, res.Subgraphs[i].Cost, w, costsOf(res.Subgraphs))
		}
	}
}
