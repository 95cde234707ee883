package ingest

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/rdf"
)

func newFig1Live(t *testing.T, cfg Config) *Live {
	t.Helper()
	e := engine.New(engine.Config{})
	e.AddTriples(rdf.MustParseFig1())
	e.Seal()
	w, err := Create(t.TempDir(), int64(e.NumTriples()), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return NewLive(e, w, cfg)
}

func exi(local string) rdf.Term { return rdf.NewIRI(rdf.ExampleNS + local) }

func pub9Batch() []rdf.Triple {
	return []rdf.Triple{
		rdf.NewTriple(exi("pub9"), rdf.NewIRI(rdf.RDFType), exi("Article")),
		rdf.NewTriple(exi("pub9"), exi("title"), rdf.NewLiteral("Crashsafe Ingestion")),
		rdf.NewTriple(exi("pub9"), exi("year"), rdf.NewLiteral("2026")),
		rdf.NewTriple(exi("pub9"), exi("author"), exi("re2")),
	}
}

// TestLiveIngestImmediatelyExecutable: an acknowledged batch answers
// execute queries in the very next epoch, before any swap.
func TestLiveIngestImmediatelyExecutable(t *testing.T) {
	l := newFig1Live(t, Config{EpochMaxDelta: 1 << 20})
	defer l.Close()
	ctx := context.Background()

	cands, _, err := l.SearchKContext(ctx, []string{"cimiano", "2006"}, 0)
	if err != nil || len(cands) == 0 {
		t.Fatalf("base search: %v (%d candidates)", err, len(cands))
	}
	before, err := l.ExecuteLimitContext(ctx, cands[0], 0)
	if err != nil {
		t.Fatal(err)
	}

	epoch0 := l.Epoch()
	nbase := l.NumTriples()
	added, seq, err := l.Ingest(pub9Batch())
	if err != nil || added != 4 || seq != 1 {
		t.Fatalf("ingest: added=%d seq=%d err=%v", added, seq, err)
	}
	if l.Epoch() != epoch0+1 {
		t.Fatalf("epoch %d after ingest, want %d", l.Epoch(), epoch0+1)
	}
	if l.Swaps() != 0 {
		t.Fatal("unexpected swap below threshold")
	}

	// The same candidate now sees the delta rows.
	after, err := l.ExecuteLimitContext(ctx, cands[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() < before.Len() {
		t.Fatalf("rows shrank after ingest: %d → %d", before.Len(), after.Len())
	}
	if l.NumTriples() != nbase+4 {
		t.Fatalf("NumTriples = %d, want %d", l.NumTriples(), nbase+4)
	}
}

// TestLiveSwapMakesDataSearchable: keyword search covers the delta only
// after the epoch swap merges it into the indexes.
func TestLiveSwapMakesDataSearchable(t *testing.T) {
	var swapped []SwapObservation
	l := newFig1Live(t, Config{
		EpochMaxDelta: 1 << 20,
		ObserveSwap:   func(o SwapObservation) { swapped = append(swapped, o) },
	})
	defer l.Close()
	ctx := context.Background()

	if _, _, err := l.Ingest(pub9Batch()); err != nil {
		t.Fatal(err)
	}
	cands, _, err := l.SearchKContext(ctx, []string{"crashsafe"}, 0)
	if err == nil && len(cands) > 0 {
		t.Fatal("pre-swap search already sees delta keywords")
	}

	if err := l.Swap(); err != nil {
		t.Fatal(err)
	}
	if l.Swaps() != 1 || l.DeltaTriples() != 0 {
		t.Fatalf("swaps=%d delta=%d", l.Swaps(), l.DeltaTriples())
	}
	cands, _, err = l.SearchKContext(ctx, []string{"crashsafe"}, 0)
	if err != nil || len(cands) == 0 {
		t.Fatalf("post-swap search: %v (%d candidates)", err, len(cands))
	}
	rs, err := l.ExecuteLimitContext(ctx, cands[0], 0)
	if err != nil || rs.Len() == 0 {
		t.Fatalf("post-swap execute: %v (%d rows)", err, rs.Len())
	}

	if len(swapped) != 1 {
		t.Fatalf("ObserveSwap fired %d times", len(swapped))
	}
	obs := swapped[0]
	if obs.Triples != 4 || obs.Epoch != l.Epoch() {
		t.Fatalf("observation %+v", obs)
	}
}

// TestLiveSwapEquivalentToRebuild: after any sequence of batches and
// swaps, search and execute answers are bit-identical to a from-scratch
// engine over the same triples in the same order.
func TestLiveSwapEquivalentToRebuild(t *testing.T) {
	baseTs := rdf.MustParseFig1()
	l := newFig1Live(t, Config{EpochMaxDelta: 3}) // swap on nearly every batch
	defer l.Close()
	ctx := context.Background()

	all := append([]rdf.Triple(nil), baseTs...)
	batches := [][]rdf.Triple{
		pub9Batch(),
		{
			rdf.NewTriple(exi("pub10"), exi("title"), rdf.NewLiteral("Epoch Swapped Indexing")),
			rdf.NewTriple(exi("pub10"), exi("author"), exi("re3")),
		},
		{
			rdf.NewTriple(exi("pub11"), rdf.NewIRI(rdf.RDFType), exi("Article")),
			rdf.NewTriple(exi("pub11"), exi("year"), rdf.NewLiteral("2006")),
		},
	}
	for _, b := range batches {
		if _, _, err := l.Ingest(b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	if err := l.Swap(); err != nil { // flush any sub-threshold remainder
		t.Fatal(err)
	}
	if l.Swaps() == 0 {
		t.Fatal("test exercised no swaps")
	}

	fresh := engine.New(engine.Config{})
	fresh.AddTriples(all)
	fresh.Seal()

	for _, kws := range [][]string{
		{"cimiano", "2006"},
		{"crashsafe"},
		{"epoch", "swapped"},
		{"article", "2026"},
		{"aifb", "publication"},
	} {
		gotC, _, gotErr := l.SearchKContext(ctx, kws, 0)
		wantC, _, wantErr := fresh.SearchKContext(ctx, kws, 0)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%v: err %v vs %v", kws, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if len(gotC) != len(wantC) {
			t.Fatalf("%v: %d candidates vs %d", kws, len(gotC), len(wantC))
		}
		for i := range wantC {
			if !reflect.DeepEqual(gotC[i].Query, wantC[i].Query) {
				t.Fatalf("%v: candidate %d diverges:\nlive:  %v\nfresh: %v", kws, i, gotC[i].Query, wantC[i].Query)
			}
			got, err := l.ExecuteLimitContext(ctx, gotC[i], 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ExecuteLimitContext(ctx, wantC[i], 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) || got.Truncated != want.Truncated {
				t.Fatalf("%v: candidate %d rows diverge:\nlive:  %v\nfresh: %v", kws, i, got.Rows, want.Rows)
			}
		}
	}
}

// TestLiveEpochPinning: an acquired epoch stays queryable and keeps its
// triple count while newer epochs are published over it.
func TestLiveEpochPinning(t *testing.T) {
	l := newFig1Live(t, Config{EpochMaxDelta: 1 << 20})
	defer l.Close()

	ep := l.Acquire()
	if ep.Pinned() != 1 {
		t.Fatalf("pinned = %d", ep.Pinned())
	}
	n0 := ep.NumTriples()

	if _, _, err := l.Ingest(pub9Batch()); err != nil {
		t.Fatal(err)
	}
	if err := l.Swap(); err != nil {
		t.Fatal(err)
	}
	if got := ep.NumTriples(); got != n0 {
		t.Fatalf("pinned epoch grew: %d → %d", n0, got)
	}
	cur := l.Acquire()
	if cur.Num() <= ep.Num() {
		t.Fatalf("epoch numbers not monotonic: %d then %d", ep.Num(), cur.Num())
	}
	if cur.NumTriples() != n0+4 {
		t.Fatalf("current epoch triples = %d", cur.NumTriples())
	}
	cur.Release()
	ep.Release()
	if ep.Pinned() != 0 {
		t.Fatalf("pinned after release = %d", ep.Pinned())
	}
}

// TestLiveIngestDuplicatesAreNoops: re-ingesting existing triples is
// acknowledged (idempotent producers) but changes nothing.
func TestLiveIngestDuplicatesAreNoops(t *testing.T) {
	l := newFig1Live(t, Config{EpochMaxDelta: 1 << 20})
	defer l.Close()

	epoch0 := l.Epoch()
	added, seq, err := l.Ingest(rdf.MustParseFig1()[:3])
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("duplicate batch added %d triples", added)
	}
	if seq == 0 {
		t.Fatal("duplicate batch must still be acknowledged through the WAL")
	}
	if l.Epoch() != epoch0 {
		t.Fatal("no-op batch published a new epoch")
	}
}

// TestLiveManySwapsDictionaryStable: repeated swaps re-merge on top of
// merged stores; term IDs must stay dense and queries must keep
// resolving (regression guard for the snapshot-backed dictionary
// materialization in MergeDelta).
func TestLiveManySwapsDictionaryStable(t *testing.T) {
	l := newFig1Live(t, Config{EpochMaxDelta: 1}) // swap on every batch
	defer l.Close()
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		b := []rdf.Triple{
			rdf.NewTriple(exi(fmt.Sprintf("pubX%d", i)), exi("title"),
				rdf.NewLiteral(fmt.Sprintf("incremental title %d", i))),
		}
		if _, _, err := l.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if l.Swaps() != 6 {
		t.Fatalf("swaps = %d, want 6", l.Swaps())
	}
	cands, _, err := l.SearchKContext(ctx, []string{"incremental"}, 0)
	if err != nil || len(cands) == 0 {
		t.Fatalf("search after many swaps: %v (%d)", err, len(cands))
	}
}
