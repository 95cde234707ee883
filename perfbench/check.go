package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/rdf"
)

// twin is an independent engine built from the same triples as the
// served backend. Every answer the benchmark receives must equal the
// twin's: candidate SPARQL, cost and order for searches, the row set for
// executes.
type twin struct {
	eng      *engine.Engine
	mu       sync.Mutex
	searches map[string]twinSearch
}

type twinSearch struct {
	cands     []*engine.QueryCandidate
	unmatched []string
	err       error
}

func newTwin(e *engine.Engine) *twin { return &twin{eng: e, searches: map[string]twinSearch{}} }

func (t *twin) search(kws []string, k int) twinSearch {
	key := fmt.Sprintf("%d\x00%s", k, strings.Join(kws, "\x00"))
	t.mu.Lock()
	r, ok := t.searches[key]
	t.mu.Unlock()
	if ok {
		return r
	}
	var um *engine.UnmatchedKeywordsError
	r.cands, _, r.err = t.eng.SearchKContext(context.Background(), kws, k)
	if errors.As(r.err, &um) {
		r.unmatched, r.err = um.Keywords, nil
	}
	t.mu.Lock()
	t.searches[key] = r
	t.mu.Unlock()
	return r
}

func (t *twin) checkSearch(rec *searchRecord) error {
	want := t.search(rec.Keywords, rec.K)
	if want.err != nil {
		return fmt.Errorf("twin search %q: %v", rec.Keywords, want.err)
	}
	if strings.Join(rec.Unmatched, "\x00") != strings.Join(want.unmatched, "\x00") {
		return fmt.Errorf("search %q: unmatched %q, twin %q", rec.Keywords, rec.Unmatched, want.unmatched)
	}
	if rec.N != len(want.cands) {
		return fmt.Errorf("search %q: %d candidates, twin %d", rec.Keywords, rec.N, len(want.cands))
	}
	if rec.Digest != searchRecordOf(rec.Keywords, rec.K, want.cands, want.unmatched).Digest {
		return fmt.Errorf("search %q: candidates differ from the twin's in SPARQL, cost or order", rec.Keywords)
	}
	return nil
}

// searchRecordOf records candidates computed in process.
func searchRecordOf(kws []string, k int, cands []*engine.QueryCandidate, unmatched []string) *searchRecord {
	cs := make([]candRecord, len(cands))
	for i, c := range cands {
		cs[i] = candRecord{Cost: c.Cost, SPARQL: c.SPARQL()}
	}
	return newSearchRecord(kws, k, cs, unmatched)
}

func (t *twin) checkExec(rec *execRecord) error {
	want := t.search(rec.Keywords, rec.K)
	if rec.Rank >= len(want.cands) {
		return fmt.Errorf("execute %q: rank %d, twin has %d candidates", rec.Keywords, rec.Rank, len(want.cands))
	}
	cand := want.cands[rec.Rank]
	if rec.SPARQL != cand.SPARQL() {
		return fmt.Errorf("execute %q: executed SPARQL differs from the twin's rank-%d candidate", rec.Keywords, rec.Rank)
	}
	return checkRows(t.eng, cand, rec)
}

// checkRows compares an execute answer with eng's. Untruncated answers
// must have the same row set. A truncated answer must be truncated at the
// same count; when its rows were kept, each must be an answer of the full
// query, since a different join order may stop at a different subset.
func checkRows(eng *engine.Engine, cand *engine.QueryCandidate, rec *execRecord) error {
	rs, err := eng.ExecuteLimitContext(context.Background(), cand, rec.Limit)
	if err != nil {
		return fmt.Errorf("twin execute: %v", err)
	}
	if rec.Truncated != rs.Truncated || rec.Count != rs.Len() {
		return fmt.Errorf("execute %q: %d rows (truncated %v), twin %d (truncated %v)",
			rec.Keywords, rec.Count, rec.Truncated, rs.Len(), rs.Truncated)
	}
	if !rs.Truncated || rec.Rows == nil {
		if rec.Digest != digestRows(resultKeys(rs)) {
			return fmt.Errorf("execute %q: row set differs from the twin's", rec.Keywords)
		}
		return nil
	}
	full, err := eng.ExecuteLimitContext(context.Background(), cand, 0)
	if err != nil {
		return fmt.Errorf("twin execute: %v", err)
	}
	set := map[string]bool{}
	for _, k := range resultKeys(full) {
		set[k] = true
	}
	for _, k := range rec.Rows {
		if !set[k] {
			return fmt.Errorf("execute %q: a row is not an answer of the twin's query", rec.Keywords)
		}
	}
	return nil
}

func resultKeys(rs *exec.ResultSet) []string {
	keys := make([]string, len(rs.Rows))
	row := make([]termJSON, 0, len(rs.Vars))
	for i, r := range rs.Rows {
		row = row[:0]
		for _, t := range r {
			row = append(row, toTermJSON(t))
		}
		keys[i] = rowKey(row)
	}
	return keys
}

// checkSamples runs the gate over every recorded answer and marks wrong
// ones failed. Samples that share a record (equal answers to the same
// request) have it checked once. Answers of the live store's measured
// phases are not checked: the data they were computed on has moved on.
// Its final reads and its reboot are checked instead (runState.check).
func checkSamples(t *twin, sets ...[]sample) {
	verdicts := map[any]error{}
	var recs []any
	add := func(rec any) {
		if _, ok := verdicts[rec]; !ok {
			verdicts[rec] = nil
			recs = append(recs, rec)
		}
	}
	for _, ss := range sets {
		for i := range ss {
			if ss[i].Search != nil {
				add(ss[i].Search)
			}
			if ss[i].Exec != nil {
				add(ss[i].Exec)
			}
		}
	}
	errs := make([]error, len(recs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(recs); i = int(next.Add(1) - 1) {
				switch rec := recs[i].(type) {
				case *searchRecord:
					errs[i] = t.checkSearch(rec)
				case *execRecord:
					errs[i] = t.checkExec(rec)
				}
			}
		}()
	}
	wg.Wait()
	for i, rec := range recs {
		verdicts[rec] = errs[i]
	}
	for _, ss := range sets {
		for i := range ss {
			s := &ss[i]
			for _, err := range []error{verdicts[any(s.Search)], verdicts[any(s.Exec)]} {
				if err != nil {
					s.Wrong = true
					s.fail("wrong answer: %v", err)
				}
			}
		}
	}
}

// rebootOutcome is what the post-run reboot of a live store found.
type rebootOutcome struct {
	dur       time.Duration
	attempted int
	errs      []string
	want      *engine.Engine // built from the base plus the acknowledged triples
}

// rebootCheck boots the live store again from its MANIFEST and WAL, merges
// the delta, and checks that every acknowledged triple is present and that
// queries answer as an engine built from the base plus the acknowledged
// triples does.
func rebootCheck(dir string, lcfg ingest.Config, base []rdf.Triple, acked []*ingestRecord, queries [][]string) rebootOutcome {
	var out rebootOutcome
	fail := func(format string, args ...any) { out.errs = append(out.errs, fmt.Sprintf(format, args...)) }
	start := time.Now()
	l, info, err := ingest.Boot(bootConfig(dir, lcfg))
	out.dur = time.Since(start)
	out.attempted++
	if err != nil {
		fail("reboot: %v", err)
		return out
	}
	defer func() {
		l.Close()
		if info.SnapshotInfo != nil {
			info.SnapshotInfo.Close()
		}
	}()
	if err := l.Swap(); err != nil {
		fail("reboot swap: %v", err)
		return out
	}
	ep := l.Acquire()
	defer ep.Release()
	got := ep.Engine()

	sort.Slice(acked, func(i, j int) bool { return acked[i].Seq < acked[j].Seq })
	all := append([]rdf.Triple(nil), base...)
	out.attempted++
	missing := 0
	st := got.Store()
	for _, rec := range acked {
		all = append(all, rec.Triples...)
		for _, tr := range rec.Triples {
			s, ok1 := st.Lookup(tr.S)
			p, ok2 := st.Lookup(tr.P)
			o, ok3 := st.Lookup(tr.O)
			if !ok1 || !ok2 || !ok3 || st.Count(s, p, o) == 0 {
				missing++
			}
		}
	}
	if missing > 0 {
		fail("reboot: %d acknowledged triples missing", missing)
	}

	want := newTwin(buildEngine(all))
	out.want = want.eng
	for _, q := range queries {
		out.attempted++
		cands, _, err := got.SearchKContext(context.Background(), q, 10)
		var um *engine.UnmatchedKeywordsError
		var unmatched []string
		switch {
		case errors.As(err, &um):
			unmatched = um.Keywords
		case err != nil:
			fail("reboot search %q: %v", q, err)
			continue
		}
		if err := want.checkSearch(searchRecordOf(q, 10, cands, unmatched)); err != nil {
			fail("reboot: %v", err)
			continue
		}
		if len(cands) == 0 {
			continue
		}
		out.attempted++
		rs, err := got.ExecuteLimitContext(context.Background(), cands[0], 100)
		if err != nil {
			fail("reboot execute %q: %v", q, err)
			continue
		}
		keys := resultKeys(rs)
		erec := &execRecord{Keywords: q, K: 10, Limit: 100, SPARQL: cands[0].SPARQL(),
			Count: rs.Len(), Truncated: rs.Truncated, Digest: digestRows(keys), Rows: keys}
		if err := want.checkExec(erec); err != nil {
			fail("reboot: %v", err)
		}
	}
	return out
}
