package shard

import (
	"fmt"
	"sync"

	"repro/internal/exec"
)

// covState accumulates one query's fault accounting: which shards have
// failed so far, and how many of those failures were recovered panics.
// One covState lives for the whole query (a search's scatter, or all
// the steps of a distributed execute); its snapshot becomes the
// exec.Coverage block the serving layer reports.
type covState struct {
	mu     sync.Mutex
	failed []bool // per shard: a call failed during this query
	panics int
}

func newCovState(shards int) *covState {
	return &covState{failed: make([]bool, shards)}
}

// fail marks the shard down for the remainder of the query (a failed
// shard contributes nothing further — the query degrades rather than
// retrying it per step) and counts the failure if it was a panic.
func (cs *covState) fail(shard int, err error) {
	_, panicked := err.(*shardPanic)
	cs.mu.Lock()
	cs.failed[shard] = true
	if panicked {
		cs.panics++
	}
	cs.mu.Unlock()
}

// down reports whether the shard has already failed during this query.
func (cs *covState) down(shard int) bool {
	cs.mu.Lock()
	d := cs.failed[shard]
	cs.mu.Unlock()
	return d
}

// allDown reports whether every shard has failed.
func (cs *covState) allDown() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, f := range cs.failed {
		if !f {
			return false
		}
	}
	return len(cs.failed) > 0
}

// coverage snapshots the accumulated state as the reportable block.
func (cs *covState) coverage() *exec.Coverage {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cov := &exec.Coverage{ShardsTotal: len(cs.failed), Panics: cs.panics}
	for _, f := range cs.failed {
		if f {
			cov.ShardsFailed++
		} else {
			cov.ShardsAnswered++
		}
	}
	return cov
}

// shardPanic is a panic recovered from one shard's part of a scatter.
type shardPanic struct {
	shard int
	val   any
}

func (p *shardPanic) Error() string { return fmt.Sprintf("shard %d: panic: %v", p.shard, p.val) }

// protect runs one shard's part of a scatter and turns a panic into
// that shard's failure, so a crashing shard degrades the query instead
// of killing the process (scatter goroutines are beyond the HTTP
// layer's recover).
func protect(shard int, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &shardPanic{shard: shard, val: p}
		}
	}()
	return fn()
}
