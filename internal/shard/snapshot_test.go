package shard

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/snapfmt"
	"repro/internal/snapshot"
)

// The cluster-level golden round trip: an N-shard cluster booted from a
// snapshot directory must be indistinguishable from the live-built one
// — which the equivalence suite already pins against a single engine —
// so the comparison here runs loaded-cluster vs engine through the same
// compareQuery harness.

func writeClusterSnapshot(t *testing.T, cl *Cluster) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cluster")
	if err := cl.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestClusterSnapshotRoundTripDBLP(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 400, Seed: 1})
	cfg := engine.Config{K: 10}
	eng := buildEngine(t, triples, cfg)
	for _, n := range []int{2, 4} {
		built := buildCluster(t, n, triples, cfg)
		dir := writeClusterSnapshot(t, built)
		for _, mode := range []snapfmt.Mode{snapfmt.ModeMmap, snapfmt.ModeHeap} {
			loaded, info, err := LoadSnapshotDir(dir, cfg, snapshot.LoadOptions{Mode: mode})
			if err != nil {
				t.Fatalf("shards=%d mode=%d: %v", n, mode, err)
			}
			if loaded.NumShards() != n {
				t.Fatalf("NumShards = %d, want %d", loaded.NumShards(), n)
			}
			if loaded.NumTriples() != built.NumTriples() {
				t.Fatalf("NumTriples = %d, want %d", loaded.NumTriples(), built.NumTriples())
			}
			if info.FormatVersion != snapfmt.Version || len(info.Sections) == 0 || info.TotalBytes == 0 {
				t.Errorf("incomplete load info: %+v", info)
			}
			for _, kws := range dblpQueries() {
				compareQuery(t, eng, loaded, kws)
			}
			if err := info.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestClusterSnapshotRoundTripLUBM(t *testing.T) {
	triples := datagen.LUBMTriples(datagen.LUBMConfig{Universities: 1, Seed: 1})
	cfg := engine.Config{K: 10}
	eng := buildEngine(t, triples, cfg)
	queries := [][]string{
		{"professor"},
		{"course", "student"},
		{"department", "university"},
		{"publication", "professor"},
		{"university0"},
	}
	for _, n := range []int{2, 4} {
		built := buildCluster(t, n, triples, cfg)
		dir := writeClusterSnapshot(t, built)
		loaded, info, err := LoadSnapshotDir(dir, cfg, snapshot.LoadOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		for _, kws := range queries {
			compareQuery(t, eng, loaded, kws)
		}
		if err := info.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterSnapshotReSnapshot checks a loaded cluster can write a new
// snapshot directory (the DF table and dictionary survive another trip).
func TestClusterSnapshotReSnapshot(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 200, Seed: 1})
	cfg := engine.Config{K: 10}
	built := buildCluster(t, 2, triples, cfg)
	dir := writeClusterSnapshot(t, built)

	loaded, info, err := LoadSnapshotDir(dir, cfg, snapshot.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer info.Close()
	dir2 := filepath.Join(t.TempDir(), "again")
	if err := loaded.WriteSnapshotDir(dir2); err != nil {
		t.Fatal(err)
	}
	again, info2, err := LoadSnapshotDir(dir2, cfg, snapshot.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer info2.Close()
	eng := buildEngine(t, triples, cfg)
	for _, kws := range [][]string{{"thanh tran", "publication"}, {"cimano", "publication"}} {
		compareQuery(t, eng, again, kws)
	}
}

// TestLoadSnapshotDirErrors pins the failure modes of a directory boot:
// missing catalog, missing shard file, damaged shard file, and handing
// the loader an engine snapshot's containing directory.
func TestLoadSnapshotDirErrors(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 100, Seed: 1})
	cfg := engine.Config{K: 10}
	built := buildCluster(t, 2, triples, cfg)

	t.Run("missing catalog", func(t *testing.T) {
		if _, _, err := LoadSnapshotDir(t.TempDir(), cfg, snapshot.LoadOptions{}); err == nil {
			t.Fatal("loaded a cluster from an empty directory")
		}
	})
	t.Run("missing shard file", func(t *testing.T) {
		dir := writeClusterSnapshot(t, built)
		if err := os.Remove(filepath.Join(dir, ShardFile(1))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadSnapshotDir(dir, cfg, snapshot.LoadOptions{}); err == nil {
			t.Fatal("loaded a cluster with a missing partition file")
		}
	})
	t.Run("corrupt shard file", func(t *testing.T) {
		dir := writeClusterSnapshot(t, built)
		path := filepath.Join(dir, ShardFile(0))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x10
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadSnapshotDir(dir, cfg, snapshot.LoadOptions{}); err == nil {
			t.Fatal("loaded a cluster from a corrupt partition file")
		}
	})
	t.Run("engine file as catalog", func(t *testing.T) {
		eng := buildEngine(t, triples, cfg)
		dir := t.TempDir()
		if err := snapshot.WriteEngine(filepath.Join(dir, CatalogFile), eng); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadSnapshotDir(dir, cfg, snapshot.LoadOptions{}); err == nil {
			t.Fatal("loaded a cluster from an engine snapshot")
		}
	})
}
