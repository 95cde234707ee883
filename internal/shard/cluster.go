package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/keywordindex"
	"repro/internal/parallel"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Cluster is the coordinator over N shards. It implements engine.Queryer,
// so the serving layer uses it interchangeably with a single engine. A
// cluster is immutable (born sealed) and safe for any number of
// concurrent searches and executions.
type Cluster struct {
	cfg    engine.Config
	shards []*Shard

	// transports holds one Transport per shard; every scattered call
	// (keyword lookup, bind-join step) reaches its shard through it.
	transports []Transport

	// dict is the coordinator's catalog: the full dictionary in the
	// single-engine ID space (store.DictionaryView — no triples).
	dict *store.Store
	// sum is the global summary graph, backed by a slim graph over dict.
	sum *summary.Graph
	// df is the corpus-wide term → document-frequency table (the global
	// IDF statistics the merged keyword ranking needs). A built cluster
	// backs it with the map extracted at build time; a snapshot-booted
	// cluster backs it with the catalog's mapped DFTable.
	df keywordindex.DF
	// numeric are the global numeric-attribute matches for filter
	// keywords ("before 2005"), in coordinator IDs.
	numeric []summary.Match

	explorer     *core.Explorer
	totalTriples int
	buildTime    time.Duration

	// MaxSteps bounds the total join iterations per distributed execute,
	// mirroring exec.Engine.MaxSteps (0 applies exec.DefaultMaxSteps).
	// Set it before serving; it is read concurrently.
	MaxSteps int
	// MaxRows bounds distinct-answer tracking per execute when the
	// caller sets no limit, mirroring exec.Engine.MaxRows (0 applies
	// exec.DefaultMaxRows). Set it before serving.
	MaxRows int

	// scratch recycles distributed-execute working memory (flat binding
	// tables, per-shard extension buffers, the coordinator dedup set)
	// across queries; see distScratch.
	scratch sync.Pool
}

var _ engine.Queryer = (*Cluster)(nil)

// Config returns the engine configuration the cluster serves.
func (c *Cluster) Config() engine.Config { return c.cfg }

// Seal is a no-op: a cluster is born sealed.
func (c *Cluster) Seal() {}

// Sealed always reports true.
func (c *Cluster) Sealed() bool { return true }

// NumTriples returns the total number of distinct triples across shards.
func (c *Cluster) NumTriples() int { return c.totalTriples }

// BuildDuration returns the off-line partition-and-build time.
func (c *Cluster) BuildDuration() time.Duration { return c.buildTime }

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// ShardSizes returns the owned triple count per shard.
func (c *Cluster) ShardSizes() []int {
	out := make([]int, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.NumTriples()
	}
	return out
}

// Search runs the scatter-gather query computation with the configured k.
func (c *Cluster) Search(keywords []string) ([]*engine.QueryCandidate, *engine.SearchInfo, error) {
	return c.SearchKContext(context.Background(), keywords, 0)
}

// SearchKContext computes the top-k query candidates for a keyword query.
//
// Stage 1 (scatter): every shard maps every keyword against its local
// keyword index concurrently, returning raw per-channel contributions.
// Stage 2 (gather): the coordinator merges them with the global lexicon
// statistics into exactly the matches a single global index produces.
// Stage 3: augmentation, exploration, and query mapping run at the
// coordinator over the global summary graph — the code path shared with
// engine.Engine (engine.ComputeCandidates).
func (c *Cluster) SearchKContext(ctx context.Context, keywords []string, k int) ([]*engine.QueryCandidate, *engine.SearchInfo, error) {
	if len(keywords) == 0 {
		return nil, nil, fmt.Errorf("shard: empty keyword query")
	}
	if k <= 0 {
		k = c.cfg.K
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	start := time.Now()

	opts := keywordindex.LookupOptions{
		MaxMatches:      c.cfg.MaxMatchesPerKeyword,
		DisableFuzzy:    c.cfg.DisableFuzzy,
		DisableSemantic: c.cfg.DisableSemantic,
	}
	matches := make([][]summary.Match, len(keywords))
	filterSpecs := make([]*engine.FilterSpec, len(keywords))
	var scatter []int // keyword indexes that need the shards
	for i, kw := range keywords {
		if spec, ok := engine.ParseFilterKeyword(kw); ok {
			specCopy := spec
			filterSpecs[i] = &specCopy
			matches[i] = append([]summary.Match(nil), c.numeric...)
			continue
		}
		scatter = append(scatter, i)
	}

	// Scatter: one goroutine per shard computes the raw lookups for
	// every non-filter keyword. raws[shard][j] answers keywords[scatter[j]];
	// a shard that fails (errors or panics) leaves raws[shard] nil and
	// the query degrades to the shards that answered.
	lctx, lookupSpan := trace.StartSpan(ctx, "lookup")
	raws := make([][]*keywordindex.RawLookup, len(c.shards))
	cov := newCovState(len(c.shards))
	if len(scatter) > 0 {
		var wg sync.WaitGroup
		for si, tr := range c.transports {
			wg.Add(1)
			go func(si int, tr Transport) {
				defer wg.Done()
				shCtx, shSpan := trace.StartSpan(lctx, "shard_lookup")
				defer shSpan.End()
				if shSpan.Enabled() {
					shSpan.Annotate("shard=" + strconv.Itoa(si))
				}
				part := make([]*keywordindex.RawLookup, len(scatter))
				err := protect(si, func() error {
					for j, ki := range scatter {
						r, err := tr.Lookup(shCtx, keywords[ki], opts)
						if err != nil {
							return err
						}
						part[j] = r
					}
					return nil
				})
				if err == nil {
					raws[si] = part
					return
				}
				if ctx.Err() == nil {
					cov.fail(si, err)
				}
				if shSpan.Enabled() {
					shSpan.Annotate("failed: " + err.Error())
				}
			}(si, tr)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			lookupSpan.End()
			return nil, nil, err
		}
		if cov.allDown() {
			lookupSpan.End()
			info := &engine.SearchInfo{Coverage: cov.coverage()}
			return nil, info, fmt.Errorf("shard: search failed: %w", ErrGroupDown)
		}
	}

	// Gather: merge per keyword in the coordinator's ID space. Each
	// keyword's merge — re-ranking every shard's raw contributions
	// against the global lexicon — is independent of the others, so the
	// ComputeCandidates input assembly fans out across the intra-query
	// worker cap alongside the lookups that produced it.
	dfFn := c.df.DocFreq
	resolve := func(t rdf.Term) (store.ID, bool) { return c.dict.Lookup(t) }
	_, mergeSpan := trace.StartSpan(lctx, "merge")
	parallel.ForEach(parallel.Workers(c.cfg.Parallelism), len(scatter), func(j int) {
		parts := make([]*keywordindex.RawLookup, len(c.shards))
		for si := range c.shards {
			if raws[si] != nil { // nil: shard down, merge degrades
				parts[si] = raws[si][j]
			}
		}
		matches[scatter[j]] = keywordindex.MergeRaw(parts, opts, dfFn, resolve)
	})
	mergeSpan.End()
	lookupSpan.End()

	info := &engine.SearchInfo{MatchCounts: make([]int, len(matches))}
	if len(scatter) > 0 {
		info.Coverage = cov.coverage()
	}
	var unmatched []string
	for i, ms := range matches {
		info.MatchCounts[i] = len(ms)
		if len(ms) == 0 {
			unmatched = append(unmatched, keywords[i])
		}
	}
	if len(unmatched) > 0 {
		return nil, info, &engine.UnmatchedKeywordsError{Keywords: unmatched}
	}

	cands, err := engine.ComputeCandidates(ctx, c.explorer, c.sum, c.cfg, k, matches, filterSpecs, info)
	if err != nil {
		return nil, info, err
	}
	info.Elapsed = time.Since(start)
	return cands, info, nil
}

// Execute evaluates a candidate across all shards and returns all its
// answers (see ExecuteLimitContext).
func (c *Cluster) Execute(cand *engine.QueryCandidate) (*exec.ResultSet, error) {
	return c.ExecuteLimitContext(context.Background(), cand, 0)
}
