package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/thesaurus"
)

// Epoch is one immutable, queryable version of the dataset: a sealed
// engine over the base triples plus an immutable delta snapshot
// overlaying it. Minor epochs (per ingest batch) share the engine and
// replace the delta; major epochs (swaps) merge the delta into a fresh
// engine and start an empty delta.
type Epoch struct {
	eng   *engine.Engine
	delta *store.DeltaSnap
	num   uint64 // monotonically increasing epoch number
	major uint64 // number of swaps merged into eng
	refs  atomic.Int64
}

// Num returns the epoch number.
func (ep *Epoch) Num() uint64 { return ep.num }

// Engine returns the epoch's sealed base engine.
func (ep *Epoch) Engine() *engine.Engine { return ep.eng }

// Delta returns the epoch's overlay (nil right after a swap).
func (ep *Epoch) Delta() *store.DeltaSnap { return ep.delta }

// NumTriples returns the triples visible in this epoch.
func (ep *Epoch) NumTriples() int { return ep.eng.NumTriples() + ep.delta.Len() }

// Release unpins the epoch. Each Handle must be released exactly once.
func (ep *Epoch) Release() { ep.refs.Add(-1) }

// Pinned returns the number of unreleased handles (in-flight queries).
func (ep *Epoch) Pinned() int64 { return ep.refs.Load() }

// SwapObservation describes one completed epoch swap.
type SwapObservation struct {
	Epoch           uint64
	Triples         int // triples merged from the delta
	Duration        time.Duration
	SummaryRebuilt  bool // incremental fast path missed → full Build
	KeywordsRebuilt bool
	// Expired counts triples dropped by retention during this swap.
	Expired int
	// RetentionMerge marks a swap that dropped expired rows: the new
	// engine is not a superset of the old one, so cached candidates may
	// reference dropped rows. The serving layer flushes its candidate
	// cache as well as its search cache.
	RetentionMerge bool
	// ChangedKeywords is always nil. Swaps no longer compute the tokens
	// the delta touched: the serving layer flushes its whole search cache
	// on every swap, because candidate costs depend on summary statistics
	// any batch changes. The field stays because the serving benchmark
	// (perfbench/perlayer.go, ingest.invalidated_per_swap) reads it;
	// dropping it is a change to the benchmark.
	ChangedKeywords []string
}

// Config tunes a Live store.
type Config struct {
	// Engine is the query-engine configuration for merged epochs.
	Engine engine.Config
	// EpochMaxDelta swaps the delta into a fresh engine once it holds
	// this many triples (default 50000).
	EpochMaxDelta int
	// Retention is the default TTL stamped onto ingested triples that
	// carry none of their own (0 = triples live forever by default).
	Retention time.Duration
	// DiskFullTrips latches the store read-only after this many
	// consecutive ErrDiskFull appends (default 3; backpressure first,
	// then degradation).
	DiskFullTrips int
	// Now is the retention clock (default time.Now; injectable so tests
	// expire triples deterministically).
	Now func() time.Time
	// Crash fires the swap.*, wal.*, and ckpt.* crash points (nil =
	// disarmed).
	Crash *faultinject.CrashSet
	// Disk injects filesystem errors into WAL and checkpoint I/O (nil =
	// disarmed).
	Disk *faultinject.DiskSet
	// ObserveFsync receives WAL fsync durations.
	ObserveFsync func(time.Duration)
	// ObserveSwap receives every completed swap, after the new epoch is
	// installed — the hook the serving layer uses for metrics and cache
	// invalidation.
	ObserveSwap func(SwapObservation)
	// ObserveCheckpoint receives every checkpoint attempt's outcome.
	ObserveCheckpoint func(CheckpointResult, error)
}

func (c Config) withDefaults() Config {
	if c.EpochMaxDelta <= 0 {
		c.EpochMaxDelta = 50000
	}
	if c.DiskFullTrips <= 0 {
		c.DiskFullTrips = 3
	}
	return c
}

// Live is a queryable store that accepts writes: a sealed base engine,
// a WAL for durability, and a single-writer delta that overlays the
// base until an epoch swap merges it. Reads are wait-free (one atomic
// load pins an epoch); writes are serialized.
//
// Visibility: Execute sees base + delta immediately after the batch is
// acknowledged. Search (keyword → candidates) matches against the
// summary graph and keyword index, which cover the base engine only —
// new data becomes searchable at the next epoch swap. This is the
// deliberate freshness trade: candidate enumeration stays allocation-
// free and index-backed, and the swap bounds staleness by
// EpochMaxDelta.
type Live struct {
	cfg Config

	mu    sync.Mutex // serializes Ingest and swaps
	wal   *WAL
	delta *store.Delta // accumulator; guarded by mu

	retain         map[rdf.Triple]int64 // armed TTLs (expiry unixnano); guarded by mu
	diskFullStreak int                  // consecutive ErrDiskFull appends; guarded by mu

	cur      atomic.Pointer[Epoch]
	readOnly atomic.Pointer[readOnlyState] // non-nil = writes latched off

	ingested atomic.Int64 // triples accepted since boot (dedup included)
	swaps    atomic.Int64
	expired  atomic.Int64 // triples dropped by retention

	ckptMu   sync.Mutex // serializes checkpoints (never held with mu)
	ckpt     atomic.Pointer[CheckpointStats]
	lowWater atomic.Uint64 // highest batch seq covered by the installed checkpoint
}

// Read-only degradation reasons, doubling as the HTTP error codes the
// serving layer returns on refused writes.
const (
	// ReadOnlyFsync: a WAL fsync failed; the log is poisoned until
	// restart (fsyncgate semantics — see ErrWALPoisoned).
	ReadOnlyFsync = "read_only_disk"
	// ReadOnlyDiskFull: DiskFullTrips consecutive appends hit ENOSPC.
	ReadOnlyDiskFull = "disk_full"
)

type readOnlyState struct {
	reason string
	err    error
}

// ReadOnlyReason returns the degradation code latched by a disk fault
// ("" = writable). Reads are always served.
func (l *Live) ReadOnlyReason() string {
	if ro := l.readOnly.Load(); ro != nil {
		return ro.reason
	}
	return ""
}

// NewLive wraps a sealed base engine and an opened WAL. The engine must
// be sealed; the WAL must be positioned for appending (fresh Create or
// recovered Open).
func NewLive(base *engine.Engine, wal *WAL, cfg Config) *Live {
	base.Seal()
	if cfg.Engine == (engine.Config{}) {
		// An epoch swap rebuilds the engine from cfg.Engine; inheriting
		// the base's config keeps K, scoring, etc. stable across swaps.
		cfg.Engine = base.Config()
	}
	l := &Live{cfg: cfg.withDefaults(), wal: wal, delta: store.NewDelta(base.Store())}
	ep := &Epoch{eng: base, num: 1}
	l.cur.Store(ep)
	return l
}

// Acquire pins the current epoch for a read. Release it when done.
func (l *Live) Acquire() *Epoch {
	ep := l.cur.Load()
	ep.refs.Add(1)
	return ep
}

// Epoch returns the current epoch number.
func (l *Live) Epoch() uint64 { return l.cur.Load().num }

// DeltaTriples returns the size of the un-merged delta.
func (l *Live) DeltaTriples() int { return l.cur.Load().delta.Len() }

// IngestedTriples returns the total triples accepted since boot.
func (l *Live) IngestedTriples() int64 { return l.ingested.Load() }

// Swaps returns the number of completed epoch swaps.
func (l *Live) Swaps() int64 { return l.swaps.Load() }

// WAL returns the underlying log (for stats).
func (l *Live) WAL() *WAL { return l.wal }

// EpochMaxDelta returns the swap threshold.
func (l *Live) EpochMaxDelta() int { return l.cfg.EpochMaxDelta }

// SetObservers installs (or replaces) the swap, fsync, and checkpoint
// hooks after construction — the serving layer is built after Boot, so
// it binds its metrics and cache invalidation here. Serialized against
// Ingest/Swap.
func (l *Live) SetObservers(onSwap func(SwapObservation), onFsync func(time.Duration), onCheckpoint func(CheckpointResult, error)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if onSwap != nil {
		l.cfg.ObserveSwap = onSwap
	}
	if onFsync != nil {
		l.wal.SetObserveFsync(onFsync)
	}
	if onCheckpoint != nil {
		l.cfg.ObserveCheckpoint = onCheckpoint
	}
}

// Ingest durably logs a batch, applies it to the delta, and publishes a
// new minor epoch. It returns the count of previously-unknown triples
// (duplicates of base or delta rows are accepted but change nothing)
// and the WAL sequence the batch was acknowledged under. A swap is
// triggered synchronously once the delta exceeds EpochMaxDelta.
func (l *Live) Ingest(ts []rdf.Triple) (added int, seq uint64, err error) {
	return l.IngestTTL(ts, 0)
}

// IngestTTL ingests a batch whose triples expire ttl from now (0 =
// store default; the store default 0 = never). Expiry resolves at major
// merges — see retention.go.
func (l *Live) IngestTTL(ts []rdf.Triple, ttl time.Duration) (added int, seq uint64, err error) {
	if len(ts) == 0 {
		return 0, 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	if ro := l.readOnly.Load(); ro != nil {
		return 0, 0, ro.err
	}

	// Durability first: the batch is acknowledged only after the WAL
	// accepts it, so replay-on-boot covers everything a client saw
	// succeed.
	expiry := l.expiryFor(ttl)
	seq, err = l.wal.AppendExpiring(ts, expiry)
	if err != nil {
		l.degradeLocked(err)
		return 0, 0, err
	}
	l.diskFullStreak = 0
	added = l.applyLocked(ts, expiry)

	if l.delta.Len() >= l.cfg.EpochMaxDelta {
		if err := l.swapLocked(); err != nil {
			return added, seq, fmt.Errorf("ingest: batch %d acknowledged but epoch swap failed: %w", seq, err)
		}
	}
	return added, seq, nil
}

// degradeLocked latches the store read-only when a WAL append error
// warrants it: a poisoned log immediately, a full disk after
// DiskFullTrips consecutive refusals (backpressure first — transient
// ENOSPC may clear). Callers hold mu.
func (l *Live) degradeLocked(err error) {
	switch {
	case errors.Is(err, ErrWALPoisoned):
		l.readOnly.CompareAndSwap(nil, &readOnlyState{reason: ReadOnlyFsync, err: err})
	case errors.Is(err, ErrDiskFull):
		l.diskFullStreak++
		if l.diskFullStreak >= l.cfg.DiskFullTrips {
			l.readOnly.CompareAndSwap(nil, &readOnlyState{reason: ReadOnlyDiskFull, err: err})
		}
	}
}

// applyLocked adds a batch to the delta, arms its retention, and
// publishes a minor epoch. Callers hold mu.
func (l *Live) applyLocked(ts []rdf.Triple, expiry int64) int {
	added := 0
	for _, t := range ts {
		if _, ok := l.delta.Add(t); ok {
			added++
		}
	}
	l.retainLocked(ts, expiry)
	l.ingested.Add(int64(len(ts)))
	old := l.cur.Load()
	if added == 0 {
		return 0 // nothing new: current epoch already describes the data
	}
	next := &Epoch{eng: old.eng, delta: l.delta.Snapshot(), num: old.num + 1, major: old.major}
	l.cur.Store(next)
	return added
}

// Swap forces an epoch swap regardless of the delta threshold.
func (l *Live) Swap() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.swapLocked()
}

// swapLocked merges the delta into a fresh sealed engine and installs
// it as the next epoch. In-flight queries keep their pinned epochs; the
// old engine stays valid until its last reader releases it. Triples
// whose TTL has passed do not survive the merge. Callers hold mu.
func (l *Live) swapLocked() error {
	due := l.dueLocked(l.now())
	if l.delta.Len() == 0 && len(due) == 0 {
		return nil
	}
	start := time.Now()
	old := l.cur.Load()
	snap := l.delta.Snapshot()
	obs := SwapObservation{Triples: snap.Len()}

	l.cfg.Crash.Hit(faultinject.CrashSwapBeforeMerge)
	var eng *engine.Engine
	if len(due) == 0 {
		// Fast path: the new engine is a superset of the old, so summary
		// and keyword index can be maintained incrementally.
		merged := store.MergeDelta(old.eng.Store(), snap)
		newG := graph.Build(merged)
		sum, ok := summary.ApplyDelta(old.eng.Summary(), newG, snap.Triples())
		if !ok {
			sum = summary.Build(newG)
			obs.SummaryRebuilt = true
		}
		kwix, ok := keywordindex.ApplyDelta(old.eng.KeywordIndex(), newG, snap.Triples())
		if !ok {
			kwix = keywordindex.Build(newG, l.thesaurus())
			obs.KeywordsRebuilt = true
		}
		eng = engine.NewFromParts(l.cfg.Engine, merged, newG, sum, kwix, old.eng.BuildDuration()+time.Since(start))
	} else {
		// Retention slow path: rows are being dropped, which the
		// incremental index maintenance cannot express — rebuild.
		eng = l.rebuildWithoutLocked(snap, due)
		obs.SummaryRebuilt, obs.KeywordsRebuilt = true, true
		obs.Expired, obs.RetentionMerge = len(due), true
		for t := range due {
			delete(l.retain, t)
		}
		l.expired.Add(int64(len(due)))
	}
	l.cfg.Crash.Hit(faultinject.CrashSwapAfterMerge)

	next := &Epoch{eng: eng, num: old.num + 1, major: old.major + 1}
	l.delta = store.NewDelta(eng.Store())
	l.cur.Store(next)
	l.swaps.Add(1)
	l.cfg.Crash.Hit(faultinject.CrashSwapAfterInstall)

	obs.Epoch = next.num
	obs.Duration = time.Since(start)
	if l.cfg.ObserveSwap != nil {
		l.cfg.ObserveSwap(obs)
	}
	return nil
}

func (l *Live) thesaurus() *thesaurus.Thesaurus {
	if l.cfg.Engine.DisableSemantic {
		return nil
	}
	return l.cfg.Engine.WithDefaults().Thesaurus
}

// Close syncs and closes the WAL. Queries against already-acquired
// epochs remain valid.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wal.Close()
}

// --- engine.Queryer ---------------------------------------------------

var _ engine.Queryer = (*Live)(nil)

// Seal is a no-op: the live store's base is always sealed and its delta
// is managed by epochs.
func (l *Live) Seal() {}

// Sealed reports true: every published epoch is immutable.
func (l *Live) Sealed() bool { return true }

// Config returns the engine configuration of the current epoch.
func (l *Live) Config() engine.Config { return l.cur.Load().eng.Config() }

// NumTriples returns the triples visible in the current epoch.
func (l *Live) NumTriples() int { return l.cur.Load().NumTriples() }

// BuildDuration returns the current epoch's cumulative build cost.
func (l *Live) BuildDuration() time.Duration { return l.cur.Load().eng.BuildDuration() }

// SearchKContext computes query candidates against the current epoch's
// base engine (see the Live type's visibility note).
func (l *Live) SearchKContext(ctx context.Context, keywords []string, k int) ([]*engine.QueryCandidate, *engine.SearchInfo, error) {
	ep := l.Acquire()
	defer ep.Release()
	return ep.eng.SearchKContext(ctx, keywords, k)
}

// ExecuteLimitContext evaluates a candidate against the current epoch:
// base triples plus the acknowledged delta.
func (l *Live) ExecuteLimitContext(ctx context.Context, c *engine.QueryCandidate, limit int) (*exec.ResultSet, error) {
	ep := l.Acquire()
	defer ep.Release()
	return ep.eng.ExecuteLimitContextDelta(ctx, c, limit, ep.delta)
}

// Explain returns the current epoch's evaluation plan for a candidate.
func (l *Live) Explain(c *engine.QueryCandidate) (*exec.Plan, error) {
	return l.cur.Load().eng.Explain(c)
}
