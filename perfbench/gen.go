package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// opKind names one kind of request in a stream.
type opKind string

const (
	opSearch     opKind = "search"      // POST /v1/search
	opSession    opKind = "session"     // search, then execute a returned candidate by id
	opSearchExec opKind = "search_exec" // search, then execute the rank-0 candidate by id
	opIngest     opKind = "ingest"      // POST /v1/ingest
	opCheckpoint opKind = "checkpoint"  // POST /v1/checkpoint
)

// op is one generated request. Due is its send time as an offset from
// the start of the open-loop phase; closed-loop ops have none.
type op struct {
	Kind     opKind        `json:"kind"`
	Due      time.Duration `json:"due,omitempty"`
	Keywords []string      `json:"keywords,omitempty"`
	K        int           `json:"k,omitempty"`
	// Rank selects the executed candidate: rank mod the number returned.
	Rank    int          `json:"rank,omitempty"`
	Limit   int          `json:"limit,omitempty"`
	NDJSON  bool         `json:"ndjson,omitempty"`
	Triples []rdf.Triple `json:"triples,omitempty"`
}

// lexicon is what a user could type about the corpus, lowercased: author,
// institute and venue names, title words minus analyzer stopwords, years,
// and class and predicate labels. Keywords are kept exactly as typed, so
// labels the analyzer splits differently (a camelCase predicate, a
// "Stanford InfoLab" style name) stay as misses the index must answer.
type lexicon struct {
	terms [numSlots][]string // per slot, sorted

	// Entities new publications point at.
	authors []rdf.Term
	venues  []rdf.Term
	pubs    []rdf.Term
}

// slot is the kind of corpus term a keyword names.
type slot uint8

const (
	slotAuthor slot = iota // a full author name
	slotInst               // an institute name
	slotVenue              // a venue name
	slotTitle              // a title word
	slotYear
	slotClass // a class label
	slotPred  // a predicate label
	numSlots
)

// queryShapes are the keyword slots of the repository's 40 DBLP queries in
// internal/bench/workload.go: the Fig. 5 performance set Q1–Q10
// (PerfWorkload) and the Fig. 4 effectiveness set D01–D30 (DBLPWorkload).
// A stream draws them in shuffled blocks of all 40, so its mix of keyword
// counts (1–5) and kinds is theirs and no weight is chosen here. Each
// keyword is classed by what it names: the typo "cimano" an author, the
// synonyms "paper" and "writer" class labels, "stanford" an institute,
// "data engineering" a venue and the phrase "exploration candidates" a
// title word. Q10's six keywords lose their last title word ("graph"):
// a query here has at most five.
var queryShapes = [][]slot{
	{slotAuthor, slotYear},                                 // Q1
	{slotAuthor, slotInst},                                 // Q2
	{slotTitle, slotYear},                                  // Q3
	{slotAuthor, slotInst, slotYear},                       // Q4
	{slotTitle, slotTitle, slotTitle},                      // Q5
	{slotAuthor, slotInst, slotYear},                       // Q6
	{slotAuthor, slotInst, slotTitle, slotYear},            // Q7
	{slotTitle, slotTitle, slotTitle, slotTitle},           // Q8
	{slotAuthor, slotInst, slotTitle, slotTitle, slotYear}, // Q9
	{slotAuthor, slotInst, slotTitle, slotTitle, slotYear}, // Q10, cut to five
	{slotAuthor, slotClass},                                // D01
	{slotAuthor, slotClass},                                // D02
	{slotAuthor, slotClass},                                // D03
	{slotAuthor, slotYear},                                 // D04
	{slotAuthor, slotYear},                                 // D05
	{slotTitle},                                            // D06
	{slotTitle, slotTitle},                                 // D07
	{slotTitle, slotYear},                                  // D08
	{slotInst, slotClass},                                  // D09
	{slotAuthor, slotInst},                                 // D10
	{slotAuthor, slotClass},                                // D11
	{slotAuthor, slotClass},                                // D12
	{slotAuthor, slotClass},                                // D13
	{slotClass, slotPred, slotClass},                       // D14
	{slotClass, slotAuthor},                                // D15
	{slotClass, slotYear},                                  // D16
	{slotClass, slotClass},                                 // D17
	{slotClass, slotClass},                                 // D18
	{slotClass, slotPred},                                  // D19
	{slotVenue, slotClass},                                 // D20
	{slotAuthor},                                           // D21
	{slotInst},                                             // D22
	{slotAuthor, slotClass},                                // D23
	{slotClass, slotInst},                                  // D24
	{slotInst, slotClass},                                  // D25
	{slotAuthor, slotClass},                                // D26
	{slotAuthor, slotClass, slotYear},                      // D27
	{slotPred, slotClass},                                  // D28
	{slotPred, slotAuthor},                                 // D29
	{slotInst, slotClass},                                  // D30
}

// buildLexicon extracts the lexicon from the generated triples. Every
// list is sorted, so it depends on the data and nothing else.
func buildLexicon(ts []rdf.Triple) *lexicon {
	typeOf := map[string]string{} // subject IRI → class local name
	for _, t := range ts {
		if t.P.Value == rdf.RDFType {
			if _, ok := typeOf[t.S.Value]; !ok || t.O.LocalName() == "Publication" {
				typeOf[t.S.Value] = t.O.LocalName()
			}
		}
	}
	var sets [numSlots]map[string]bool
	add := func(s slot, v string) {
		if v == "" {
			return
		}
		if sets[s] == nil {
			sets[s] = map[string]bool{}
		}
		sets[s][v] = true
	}
	ents := map[string]map[string]bool{}
	for _, t := range ts {
		switch t.P.Value {
		case rdf.RDFType:
			add(slotClass, strings.ToLower(t.O.LocalName()))
			cls := t.O.LocalName()
			if cls == "Author" || cls == "Venue" || cls == "Publication" {
				if ents[cls] == nil {
					ents[cls] = map[string]bool{}
				}
				ents[cls][t.S.Value] = true
			}
			continue
		case rdf.RDFSSubClass:
			add(slotClass, strings.ToLower(t.S.LocalName()))
			add(slotClass, strings.ToLower(t.O.LocalName()))
			continue
		}
		add(slotPred, strings.ToLower(t.P.LocalName()))
		if !t.O.IsLiteral() {
			continue
		}
		v := strings.ToLower(t.O.Value)
		switch t.P.LocalName() {
		case "name":
			switch typeOf[t.S.Value] {
			case "Author":
				add(slotAuthor, v)
			case "Institute":
				add(slotInst, v)
			case "Venue", "Conference", "Journal":
				add(slotVenue, v)
			}
		case "title":
			for _, w := range strings.Fields(v) {
				if !analysis.IsStopword(w) {
					add(slotTitle, w)
				}
			}
		case "year":
			add(slotYear, v)
		}
	}
	sorted := func(set map[string]bool) []string {
		out := make([]string, 0, len(set))
		for v := range set {
			out = append(out, v)
		}
		sort.Strings(out)
		return out
	}
	iris := func(set map[string]bool) []rdf.Term {
		out := make([]rdf.Term, 0, len(set))
		for _, v := range sorted(set) {
			out = append(out, rdf.NewIRI(v))
		}
		return out
	}
	lx := &lexicon{
		authors: iris(ents["Author"]),
		venues:  iris(ents["Venue"]),
		pubs:    iris(ents["Publication"]),
	}
	for s := range sets {
		lx.terms[s] = sorted(sets[s])
	}
	return lx
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// shapeBlock returns the indexes of queryShapes, shuffled.
func shapeBlock(rng *rand.Rand) []int {
	b := make([]int, len(queryShapes))
	for i := range b {
		b[i] = i
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// query fills a shape with distinct keywords drawn from the corpus.
func (lx *lexicon) query(rng *rand.Rand, shape []slot) []string {
	kws := make([]string, 0, len(shape))
	for _, s := range shape {
		for {
			kw := pick(rng, lx.terms[s])
			dup := false
			for _, prev := range kws {
				dup = dup || prev == kw
			}
			if !dup {
				kws = append(kws, kw)
				break
			}
		}
	}
	return kws
}

// streamGen produces a workload's op sequence from its seed. The open-loop
// schedule is its first ops; the closed-loop phase keeps drawing from the
// same generator, so the whole sequence depends on the seed alone. The
// random source is seeded by the workload seed only, so search_miss and
// cluster_miss draw the same queries for the same seed.
type streamGen struct {
	w    workload
	rng  *rand.Rand
	lx   *lexicon
	seen map[string]bool // queries already sent (search_miss-style streams)
	pool [][]string      // Zipf query pool (session_hit)
	zipf *rand.Zipf

	shapes  []int // rest of the current block of queryShapes indexes
	newPubs int   // publications generated so far (ingest streams)
	n       int   // ops generated so far
}

func newStreamGen(w workload, seed int64, lx *lexicon) *streamGen {
	g := &streamGen{
		w:    w,
		rng:  rand.New(rand.NewSource(seed)),
		lx:   lx,
		seen: map[string]bool{},
	}
	if w.ZipfPool > 0 {
		// The pool (the working set) is drawn from the data seed, so every
		// workload seed serves the same hot queries: which query lands on
		// top of the Zipf ranking would otherwise set the run's cost. The
		// seed varies the sessions: their order, ranks, limits, encodings.
		poolRng := rand.New(rand.NewSource(dataSeed))
		seen := map[string]bool{}
		var block []int
		for len(g.pool) < w.ZipfPool {
			if len(block) == 0 {
				block = shapeBlock(poolRng)
			}
			q := lx.query(poolRng, queryShapes[block[0]])
			block = block[1:]
			if key := strings.Join(q, "\x00"); !seen[key] {
				seen[key] = true
				g.pool = append(g.pool, q)
			}
		}
		g.zipf = rand.NewZipf(g.rng, 1.1, 4, uint64(w.ZipfPool-1))
	}
	return g
}

// freshQuery draws a query that this stream has not sent before, so a
// miss stream never repeats itself into the server's cache. A shape whose
// fill was sent before is passed over for the next one in the block: a
// shape with few fills, such as two class labels, runs out rather than
// stalling the stream.
func (g *streamGen) freshQuery() []string {
	for {
		if len(g.shapes) == 0 {
			g.shapes = shapeBlock(g.rng)
		}
		q := g.lx.query(g.rng, queryShapes[g.shapes[0]])
		g.shapes = g.shapes[1:]
		key := strings.Join(q, "\x00")
		if !g.seen[key] {
			g.seen[key] = true
			return q
		}
	}
}

// next returns the stream's next op (without a due time).
func (g *streamGen) next() op {
	g.n++
	switch g.w.Name {
	case "session_hit":
		return op{
			Kind:     opSession,
			Keywords: g.pool[g.zipf.Uint64()],
			K:        10,
			Rank:     g.rng.Intn(10),
			Limit:    pick(g.rng, []int{10, 100, 1000}),
			NDJSON:   g.rng.Intn(4) == 0,
		}
	case "cluster_miss":
		return op{Kind: opSearchExec, Keywords: g.freshQuery(), K: 10, Limit: 100}
	case "ingest_rw":
		// Writes are spread evenly: op n is a write when n·share crosses
		// a whole number, so every run has the same read/write counts.
		if math.Floor(float64(g.n)*g.w.WriteShare) > math.Floor(float64(g.n-1)*g.w.WriteShare) {
			return op{Kind: opIngest, Triples: g.batch()}
		}
		return op{Kind: opSearchExec, Keywords: g.freshQuery(), K: 10, Limit: 100}
	default:
		return op{Kind: opSearch, Keywords: g.freshQuery(), K: 10}
	}
}

// warmup returns the ops to send untimed before measuring: one search
// of every pool query.
func (g *streamGen) warmup() []op {
	ops := make([]op, len(g.pool))
	for i, q := range g.pool {
		ops[i] = op{Kind: opSearch, Keywords: q, K: 10}
	}
	return ops
}

// batch generates about batchTriples triples of new publications whose
// author, venue and cites objects mostly point at existing entities.
func (g *streamGen) batch() []rdf.Triple {
	ns := datagen.DBLPNS
	iri := func(s string) rdf.Term { return rdf.NewIRI(ns + s) }
	typ := rdf.NewIRI(rdf.RDFType)
	var ts []rdf.Triple
	for len(ts) < batchTriples {
		g.newPubs++
		p := iri(fmt.Sprintf("benchpub%d", g.newPubs))
		cls := "Inproceedings"
		if g.rng.Intn(3) == 0 {
			cls = "Article"
		}
		words := make([]string, 3+g.rng.Intn(4))
		for i := range words {
			words[i] = pick(g.rng, g.lx.terms[slotTitle])
		}
		ts = append(ts,
			rdf.Triple{S: p, P: typ, O: iri("Publication")},
			rdf.Triple{S: p, P: typ, O: iri(cls)},
			rdf.Triple{S: p, P: iri("title"), O: rdf.NewLiteral(strings.Join(words, " "))},
			rdf.Triple{S: p, P: iri("year"), O: rdf.NewLiteral(pick(g.rng, g.lx.terms[slotYear]))},
			rdf.Triple{S: p, P: iri("publishedIn"), O: pick(g.rng, g.lx.venues)},
		)
		for i := 1 + g.rng.Intn(3); i > 0; i-- {
			if g.rng.Intn(10) == 0 {
				a := iri(fmt.Sprintf("benchauthor%d-%d", g.newPubs, i))
				ts = append(ts,
					rdf.Triple{S: a, P: typ, O: iri("Author")},
					rdf.Triple{S: a, P: iri("name"), O: rdf.NewLiteral(pick(g.rng, g.lx.terms[slotAuthor]))},
					rdf.Triple{S: p, P: iri("author"), O: a})
			} else {
				ts = append(ts, rdf.Triple{S: p, P: iri("author"), O: pick(g.rng, g.lx.authors)})
			}
		}
		for i := g.rng.Intn(3); i > 0; i-- {
			ts = append(ts, rdf.Triple{S: p, P: iri("cites"), O: pick(g.rng, g.lx.pubs)})
		}
	}
	return ts
}

// openLoop generates the open-loop schedule: ops due at the workload's
// fixed offered rate, plus checkpoints at fixed shares of the phase.
func (g *streamGen) openLoop(d time.Duration) []op {
	n := int(math.Round(g.w.Rate * d.Seconds()))
	ops := make([]op, 0, n+len(g.w.CheckpointsAt))
	cp := 0
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / g.w.Rate * float64(time.Second))
		for cp < len(g.w.CheckpointsAt) && due >= time.Duration(g.w.CheckpointsAt[cp]*float64(d)) {
			ops = append(ops, op{Kind: opCheckpoint, Due: due})
			cp++
		}
		o := g.next()
		o.Due = due
		ops = append(ops, o)
	}
	return ops
}
