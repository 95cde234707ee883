package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// clusterShards is the cluster_miss topology: 2 shards, one replica each,
// no fault injection.
const clusterShards = 2

// backend is one set-up query backend.
type backend struct {
	q       engine.Queryer
	eng     *engine.Engine // engine workloads
	cluster *shard.Cluster // cluster workloads
	live    *ingest.Live   // live workloads
	dir     string         // live: base snapshot and wal/ directory
	boot    *ingest.BootInfo
}

func buildEngine(ts []rdf.Triple) *engine.Engine {
	e := engine.New(engine.Config{})
	e.AddTriples(ts)
	e.Seal()
	return e
}

// buildBackend sets up the workload's backend from the generated triples.
// For the live backend it builds the base engine, writes its snapshot
// into dir, and boots a live store from it with an empty WAL.
func buildBackend(w workload, ts []rdf.Triple, dir string, lcfg ingest.Config) (*backend, error) {
	switch w.Backend {
	case "engine":
		e := buildEngine(ts)
		return &backend{q: e, eng: e}, nil
	case "cluster":
		b := shard.NewBuilder(clusterShards, engine.Config{})
		b.AddTriples(ts)
		c := b.Build()
		return &backend{q: c, cluster: c}, nil
	case "live":
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		snap := filepath.Join(dir, "base.swdb")
		if err := snapshot.WriteEngine(snap, buildEngine(ts)); err != nil {
			return nil, fmt.Errorf("write base snapshot: %w", err)
		}
		lcfg.EpochMaxDelta = w.EpochMaxDelta
		l, info, err := ingest.Boot(bootConfig(dir, lcfg))
		if err != nil {
			return nil, fmt.Errorf("boot live store: %w", err)
		}
		return &backend{q: l, live: l, dir: dir, boot: info}, nil
	}
	return nil, fmt.Errorf("unknown backend %q", w.Backend)
}

// bootConfig is the live store's boot configuration: the base snapshot
// in dir, the WAL in dir/wal, fsync on every batch.
func bootConfig(dir string, lcfg ingest.Config) ingest.BootConfig {
	return ingest.BootConfig{
		SnapshotPath: filepath.Join(dir, "base.swdb"),
		WALDir:       filepath.Join(dir, "wal"),
		Live:         lcfg,
		WAL:          ingest.WALOptions{Fsync: ingest.FsyncAlways},
	}
}

func (b *backend) close() {
	if b.live != nil {
		b.live.Close()
	}
	if b.boot != nil && b.boot.SnapshotInfo != nil {
		b.boot.SnapshotInfo.Close()
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		switch {
		case d.IsDir():
			return os.MkdirAll(to, 0o755)
		case d.Type().IsRegular():
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(to, b, 0o644)
		}
		return nil
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
