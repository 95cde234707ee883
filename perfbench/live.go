package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/ingest"
)

// liveObs collects what the live store's own hooks report in the traced
// ingest_rw run: every fsync, swap and checkpoint.
type liveObs struct {
	mu          sync.Mutex
	fsync       []time.Duration
	swaps       []ingest.SwapObservation
	checkpoints []time.Duration
	appends     []time.Duration // Ingest calls that did not swap
	stopped     bool            // the measured phases are over
}

// stop makes the hooks ignore what the store does after the measured
// phases, such as the merge before the final reads.
func (o *liveObs) stop() {
	if o != nil {
		o.mu.Lock()
		o.stopped = true
		o.mu.Unlock()
	}
}

func (o *liveObs) config() ingest.Config {
	return ingest.Config{
		ObserveFsync: func(d time.Duration) {
			o.mu.Lock()
			if !o.stopped {
				o.fsync = append(o.fsync, d)
			}
			o.mu.Unlock()
		},
		ObserveSwap: func(s ingest.SwapObservation) {
			o.mu.Lock()
			if !o.stopped {
				o.swaps = append(o.swaps, s)
			}
			o.mu.Unlock()
		},
		ObserveCheckpoint: func(r ingest.CheckpointResult, err error) {
			o.mu.Lock()
			if err == nil && !r.Skipped && !o.stopped {
				o.checkpoints = append(o.checkpoints, r.Duration)
			}
			o.mu.Unlock()
		},
	}
}

// directClient performs ops by calling ingest.Live directly: the traced
// ingest_rw run, where the server cannot take a timing decorator because
// it must receive the live store itself.
type directClient struct {
	l   *ingest.Live
	obs *liveObs // nil: record no appends
	tr  *tracer
}

func (d *directClient) do(ctx context.Context, o op, reqID int64, start time.Time, s *sample) {
	due := start.Add(s.Due)
	s.Calls++
	switch o.Kind {
	case opCheckpoint:
		if _, err := d.l.Checkpoint(); err != nil {
			s.fail("checkpoint: %v", err)
		}
	case opIngest:
		before := d.l.Swaps()
		t0 := time.Now()
		_, seq, err := d.l.Ingest(o.Triples)
		dur := time.Since(t0)
		s.IngestLat = time.Since(due)
		if err != nil {
			s.fail("ingest: %v", err)
			return
		}
		if d.obs != nil && d.l.Swaps() == before {
			d.obs.mu.Lock()
			d.obs.appends = append(d.obs.appends, dur)
			d.obs.mu.Unlock()
		}
		s.Ingest = &ingestRecord{Seq: seq, Triples: o.Triples}
	default:
		i := d.tr.begin("engine.search", reqID, -1)
		cands, _, err := d.l.SearchKContext(ctx, o.Keywords, o.K)
		d.tr.end(i)
		s.SearchLat = time.Since(due)
		var um *engine.UnmatchedKeywordsError
		var unmatched []string
		switch {
		case errors.As(err, &um):
			unmatched = um.Keywords
		case err != nil:
			s.fail("search: %v", err)
			return
		}
		s.Search = searchRecordOf(o.Keywords, o.K, cands, unmatched)
		if len(cands) == 0 {
			return
		}
		searched := time.Now()
		i = d.tr.begin("engine.execute", reqID, -1)
		rs, err := d.l.ExecuteLimitContext(ctx, cands[0], o.Limit)
		d.tr.end(i)
		s.ExecLat = time.Since(searched)
		if err != nil {
			s.fail("execute: %v", err)
			return
		}
		s.Exec = &execRecord{Keywords: o.Keywords, K: o.K, Limit: o.Limit, SPARQL: cands[0].SPARQL(),
			Count: rs.Len(), Truncated: rs.Truncated, Digest: digestRows(resultKeys(rs))}
	}
}
