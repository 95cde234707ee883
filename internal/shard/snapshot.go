package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/snapfmt"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/summary"
)

// A cluster snapshot is a directory of snapfmt containers: one catalog
// holding the coordinator's global artifacts (dictionary, summary
// graph, document-frequency table, numeric matches) plus one partition
// file per shard. Booting maps the catalog and the N partition files
// and fixes up a serving cluster without re-partitioning the stream or
// rebuilding any index.
//
// Section groups inside a partition file: the data store (the disjoint
// owned triples) and the index store (owned plus replicated schema)
// carry separate dictionaries, so they occupy separate groups. The
// graph and keyword index sit over the index store's group; the
// catalog's components and the dictionary translation tables use
// group 0.
const (
	groupCatalog uint32 = 0
	groupData    uint32 = 1
	groupIndex   uint32 = 2
)

// CatalogFile is the coordinator catalog's file name inside a cluster
// snapshot directory.
const CatalogFile = "catalog.swdb"

// ShardFile returns shard i's partition file name inside a cluster
// snapshot directory.
func ShardFile(i int) string { return fmt.Sprintf("shard-%04d.swdb", i) }

// WriteSnapshotDir snapshots the cluster into dir (created if needed):
// CatalogFile plus one ShardFile per shard. On error, files written by
// this call are removed.
func (c *Cluster) WriteSnapshotDir(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var written []string
	defer func() {
		if err != nil {
			for _, p := range written {
				os.Remove(p)
			}
		}
	}()

	path := filepath.Join(dir, CatalogFile)
	written = append(written, path)
	w, err := snapfmt.Create(path)
	if err != nil {
		return err
	}
	if err = snapshot.WriteMeta(w, snapshot.Meta{
		Layout:  snapshot.LayoutCatalog,
		Triples: c.totalTriples,
		Terms:   c.dict.NumTerms(),
		Shards:  len(c.shards),
		Tool:    "buildindex",
	}); err != nil {
		return err
	}
	if err = c.dict.WriteSections(w, groupCatalog); err != nil {
		return err
	}
	if err = c.sum.WriteSections(w, groupCatalog); err != nil {
		return err
	}
	if err = keywordindex.WriteDFSections(w, groupCatalog, c.df); err != nil {
		return err
	}
	if err = keywordindex.WriteMatchSections(w, groupCatalog, c.numeric); err != nil {
		return err
	}
	if err = w.Close(); err != nil {
		return err
	}

	for i, sh := range c.shards {
		path := filepath.Join(dir, ShardFile(i))
		written = append(written, path)
		if err = writeShardFile(path, sh, len(c.shards)); err != nil {
			return err
		}
	}
	return nil
}

// writeShardFile snapshots one shard's partition: its two stores, the
// graph and keyword index over the index store, and the dictionary
// translation tables into/out of the coordinator's ID space.
func writeShardFile(path string, sh *Shard, numShards int) error {
	w, err := snapfmt.Create(path)
	if err != nil {
		return err
	}
	if err := snapshot.WriteMeta(w, snapshot.Meta{
		Layout:  snapshot.LayoutShard,
		Triples: sh.data.Len(),
		Terms:   sh.data.NumTerms(),
		Shards:  numShards,
		Shard:   sh.id,
		Tool:    "buildindex",
	}); err != nil {
		return err
	}
	if err := sh.data.WriteSections(w, groupData); err != nil {
		return err
	}
	if err := sh.g.Store().WriteSections(w, groupIndex); err != nil {
		return err
	}
	if err := sh.g.WriteSections(w, groupIndex); err != nil {
		return err
	}
	if err := sh.kwix.WriteSections(w, groupIndex); err != nil {
		return err
	}
	if err := w.Add(snapfmt.SecTransL2G, 0, snapfmt.AsBytes(sh.local2global)); err != nil {
		return err
	}
	if err := w.Add(snapfmt.SecTransG2L, 0, snapfmt.AsBytes(sh.global2local)); err != nil {
		return err
	}
	return w.Close()
}

// LoadSnapshotDir boots the ready-to-serve cluster from pre-built
// partition files instead of the partition-and-build pipeline: every
// store column, posting list, and summary element is fixed up from the
// mapped containers with zero re-derivation. The shard count comes
// from the catalog. The returned Info owns the mappings — keep it alive
// as long as the cluster serves.
func LoadSnapshotDir(dir string, cfg engine.Config, opts snapshot.LoadOptions) (*Cluster, *snapshot.Info, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	info := &snapshot.Info{Path: dir}
	fail := func(e error) (*Cluster, *snapshot.Info, error) {
		info.Close()
		return nil, nil, e
	}
	ropts := snapfmt.Options{Mode: opts.Mode, SkipVerify: opts.SkipVerify}

	cat, err := snapfmt.Open(filepath.Join(dir, CatalogFile), ropts)
	if err != nil {
		return fail(err)
	}
	info.Track(cat, CatalogFile)
	meta, err := snapshot.ReadMeta(cat)
	if err != nil {
		return fail(err)
	}
	if meta.Layout != snapshot.LayoutCatalog {
		return fail(fmt.Errorf("shard: %s has layout %q, want %q", CatalogFile, meta.Layout, snapshot.LayoutCatalog))
	}
	if meta.Shards < 1 {
		return fail(fmt.Errorf("shard: catalog declares %d shards", meta.Shards))
	}
	dict, err := store.ReadSections(cat, groupCatalog)
	if err != nil {
		return fail(err)
	}
	sum, err := summary.ReadSections(cat, groupCatalog, graph.Build(dict))
	if err != nil {
		return fail(err)
	}
	df, err := keywordindex.ReadDFSections(cat, groupCatalog)
	if err != nil {
		return fail(err)
	}
	numeric, err := keywordindex.ReadMatchSections(cat, groupCatalog)
	if err != nil {
		return fail(err)
	}

	th := cfg.Thesaurus
	if cfg.DisableSemantic {
		th = nil
	}
	n := meta.Shards
	shards := make([]*Shard, n)
	for i := range shards {
		name := ShardFile(i)
		r, err := snapfmt.Open(filepath.Join(dir, name), ropts)
		if err != nil {
			return fail(err)
		}
		info.Track(r, name)
		sm, err := snapshot.ReadMeta(r)
		if err != nil {
			return fail(err)
		}
		if sm.Layout != snapshot.LayoutShard || sm.Shard != i || sm.Shards != n {
			return fail(fmt.Errorf("shard: %s does not describe shard %d of %d (layout %q, shard %d of %d)",
				name, i, n, sm.Layout, sm.Shard, sm.Shards))
		}
		ds, err := store.ReadSections(r, groupData)
		if err != nil {
			return fail(err)
		}
		is, err := store.ReadSections(r, groupIndex)
		if err != nil {
			return fail(err)
		}
		g, err := graph.ReadSections(r, groupIndex, is)
		if err != nil {
			return fail(err)
		}
		kw, err := keywordindex.ReadSections(r, groupIndex, g, th)
		if err != nil {
			return fail(err)
		}
		l2g, err := readTrans(r, snapfmt.SecTransL2G, ds.NumTerms())
		if err != nil {
			return fail(err)
		}
		g2l, err := readTrans(r, snapfmt.SecTransG2L, dict.NumTerms())
		if err != nil {
			return fail(err)
		}
		shards[i] = &Shard{id: i, data: ds, g: g, kwix: kw, local2global: l2g, global2local: g2l}
	}

	info.LoadDuration = time.Since(start)
	cl := &Cluster{
		cfg:          cfg,
		shards:       shards,
		dict:         dict,
		sum:          sum,
		df:           df,
		numeric:      numeric,
		explorer:     core.NewExplorer(),
		totalTriples: meta.Triples,
		buildTime:    time.Since(start),
	}
	cl.SetInjector(nil)
	return cl, info, nil
}

// readTrans fixes up one dictionary translation table, validating its
// length against the dictionary it indexes into.
func readTrans(r *snapfmt.Reader, kind uint32, numTerms int) ([]store.ID, error) {
	b, err := r.Section(kind, 0)
	if err != nil {
		return nil, err
	}
	ids, err := snapfmt.CastSlice[store.ID](b)
	if err != nil {
		return nil, fmt.Errorf("shard: section %q: %w", snapfmt.KindName(kind), err)
	}
	if len(ids) != numTerms+1 {
		return nil, fmt.Errorf("shard: section %q: want %d IDs, got %d", snapfmt.KindName(kind), numTerms+1, len(ids))
	}
	return ids, nil
}
