package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/rdf"
	"repro/internal/server"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run measured.
type runResult struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Failures   []string   `json:"failures,omitempty"` // first few, for diagnosis
	// DesignViolations lists what a traced run found its workload not
	// doing (a cache that should hit, swaps that should land).
	DesignViolations []string          `json:"design_violations,omitempty"`
	Samples          map[string]int    `json:"samples"` // latency sample counts per metric
	Metrics          map[string]metric `json:"metrics"`
}

func (r *runResult) set(name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Metrics[name] = metric{Value: v, Unit: unit}
	}
}

// runState is one run in progress.
type runState struct {
	w      workload
	traced bool
	dir    string // the run's temp directory

	triples []rdf.Triple
	gen     *streamGen
	genMu   sync.Mutex
	ops     []op

	tr     *tracer
	timed  *timedQueryer
	lobs   *liveObs
	setups []time.Duration
	be     *backend
	srv    *server.Server

	client       *httpClient // nil: the traced ingest_rw run, which calls the store directly
	open, closed []sample
	final        []sample // ingest_rw: the reads checked after a last merge
	closedDur    time.Duration
	gcStats      gcWindow
	reboot       *rebootOutcome
	rebootDir    string // live: a copy of the store's files as the measured phases left them
	diskBytes    int64
	walBytes     int64          // live: WAL bytes written, checkpointed-away segments included
	replayEng    *engine.Engine // the engine the traced run's stage replay runs on

	res *runResult
}

func (st *runState) next() op {
	st.genMu.Lock()
	defer st.genMu.Unlock()
	return st.gen.next()
}

// runWorkload performs one run: generate, set up, serve the stream open
// loop then closed loop, check every answer, and compute the metrics.
func runWorkload(w workload, seed int64, seconds int, traced bool, workdir string) (*runResult, error) {
	st := &runState{w: w, traced: traced}
	st.triples = datagen.DBLPTriples(datagen.DBLPConfig{Publications: dataPublications, Seed: dataSeed})
	st.gen = newStreamGen(w, seed, buildLexicon(st.triples))
	openDur := time.Duration(float64(seconds) * openShare * float64(time.Second))
	st.ops = st.gen.openLoop(openDur)

	tmpRoot := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st.dir = dir

	st.res = &runResult{Workload: w.Name, Seed: seed, Trace: traced,
		Provenance: collectProvenance(w, seed, dir), Samples: map[string]int{}, Metrics: map[string]metric{}}
	if traced {
		st.tr = newTracer()
	}

	heapMB, err := st.setup(dir)
	if err != nil {
		return nil, err
	}
	st.res.set("setup_s", medianDur(st.setups).Seconds(), "s")
	st.res.set("heap_mb", heapMB, "MB")

	if err := st.serve(openDur, time.Duration(seconds)*time.Second-openDur); err != nil {
		return nil, err
	}
	if err := st.check(); err != nil {
		return nil, err
	}
	st.endToEnd()
	if traced {
		if err := st.perLayer(); err != nil {
			return nil, err
		}
		tdir := filepath.Join(workdir, "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return nil, err
		}
		if err := st.tr.writeJSONL(filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))); err != nil {
			return nil, err
		}
	}
	return st.res, nil
}

// setup builds the backend setupRepeats times and keeps the last one. It
// returns the live heap the kept backend and its server add, after a
// forced GC.
func (st *runState) setup(dir string) (float64, error) {
	before := liveHeap()
	procs := runtime.GOMAXPROCS(0)
	for i := 0; i < setupRepeats; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		var lcfg ingest.Config
		if st.traced && st.w.Backend == "live" {
			st.lobs = &liveObs{}
			lcfg = st.lobs.config()
		}
		runtime.GC()
		start := time.Now()
		be, err := buildBackend(st.w, st.triples, sdir, lcfg)
		if err != nil {
			return 0, err
		}
		st.be = be
		switch {
		case st.traced && st.w.Backend == "live":
			// The traced run drives the live store directly (serve).
		case st.w.Backend == "live":
			st.srv = server.New(be.q, server.Config{Live: be.live}, procs)
		case st.traced:
			name := "engine"
			if be.cluster != nil {
				name = "shard"
			}
			st.timed = &timedQueryer{Queryer: be.q, t: st.tr, name: name}
			st.srv = server.New(st.timed, server.Config{}, procs)
		default:
			st.srv = server.New(be.q, server.Config{}, procs)
		}
		st.setups = append(st.setups, time.Since(start))
		if i < setupRepeats-1 {
			be.close()
			st.be = nil
			os.RemoveAll(sdir)
		}
	}
	mb := float64(liveHeap()-before) / (1 << 20)
	if b := st.be.boot; b != nil && b.SnapshotInfo != nil && b.SnapshotInfo.Mode == "mmap" {
		// A mapped snapshot serves from outside the heap; count it.
		mb += float64(b.SnapshotInfo.TotalBytes) / (1 << 20)
	}
	return mb, nil
}

// serve runs the open-loop and closed-loop phases.
func (st *runState) serve(openDur, closedDur time.Duration) error {
	conns := runtime.NumCPU()
	ctx := context.Background()
	var do doFunc
	var stop func()
	if st.srv != nil {
		h := st.srv.Handler()
		if st.tr != nil {
			h = st.tr.middleware(h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: h}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(ln) }()
		replies, err := newReplyStore(filepath.Join(st.dir, "replies"))
		if err != nil {
			ln.Close()
			return err
		}
		c := newHTTPClient("http://"+ln.Addr().String(), conns, st.tr, replies)
		st.client = c
		do = c.do
		stop = func() {
			c.close()
			hs.Shutdown(ctx)
			if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "serve:", err)
			}
		}
	} else {
		d := &directClient{l: st.be.live, obs: st.lobs, tr: st.tr}
		do = d.do
		stop = func() {}
	}
	// Warm-up (session_hit): every pool query once, untimed, so the
	// measured phases see the steady working set rather than a cold cache.
	// The ops are all due at once, so they go out as fast as conns allow.
	runOpenLoop(ctx, st.gen.warmup(), conns, do)
	st.tr.reset()
	gc0 := readGC()
	steal0, total0 := cpuTimes()
	st.open = runOpenLoop(ctx, st.ops, conns, do)
	st.closed, st.closedDur = runClosedLoop(ctx, closedDur, conns, int64(len(st.ops)), st.next, do)
	st.gcStats = readGC().since(gc0)
	if steal1, total1 := cpuTimes(); total1 > total0 {
		st.res.Provenance.StealRatio = float64(steal1-steal0) / float64(total1-total0)
	}
	if st.w.Backend == "live" {
		// A checkpoint merges every acknowledged batch; the run's first
		// read queries must then answer as an engine built from the base
		// plus the acknowledged triples does (check). Nothing here counts
		// in the per-layer metrics. The disk metrics and the reboot check
		// take the store's files as the run left them, before this
		// checkpoint compacts the WAL; no write is in flight to tear.
		st.lobs.stop()
		st.diskBytes = dirBytes(filepath.Join(st.be.dir, "wal"))
		st.walBytes = st.be.live.WAL().SizeBytes() + st.be.live.CheckpointStats().BytesRemoved
		st.rebootDir = filepath.Join(filepath.Dir(st.be.dir), "reboot")
		if err := copyTree(st.be.dir, st.rebootDir); err != nil {
			return err
		}
		if st.client == nil {
			do = (&directClient{l: st.be.live}).do
		}
		st.final = runOpenLoop(ctx, []op{{Kind: opCheckpoint}}, 1, do)
		st.final = append(st.final, runOpenLoop(ctx, st.finalReads(), conns, do)...)
	}
	stop()
	return nil
}

// finalReads returns the first rebootQueries reads of the open-loop
// schedule, all due at once.
func (st *runState) finalReads() []op {
	var out []op
	for _, o := range st.ops {
		if o.Kind == opSearchExec && len(out) < rebootQueries {
			o.Due = 0
			out = append(out, o)
		}
	}
	return out
}

// check runs the correctness gate: every answer against the twin, and for
// the live store a reboot after the run.
func (st *runState) check() error {
	if st.client != nil {
		// A truncated cluster answer may stop at another subset of the
		// rows than the engine's; checkRows needs its rows for that.
		err := st.client.replies.decode(st.w.Backend == "cluster")
		st.client.replies.close()
		if err != nil {
			return err
		}
	}
	settle(st.open)
	settle(st.closed)
	settle(st.final)
	if st.w.Backend != "live" {
		t := newTwin(buildEngine(st.triples))
		checkSamples(t, st.open, st.closed)
		st.replayEng = t.eng
		return nil
	}
	var acked []*ingestRecord
	for _, ss := range [][]sample{st.open, st.closed} {
		for i := range ss {
			if ss[i].Ingest != nil {
				acked = append(acked, ss[i].Ingest)
			}
		}
	}
	var queries [][]string
	for _, o := range st.finalReads() {
		queries = append(queries, o.Keywords)
	}
	st.be.close()
	out := rebootCheck(st.rebootDir, ingest.Config{EpochMaxDelta: st.w.EpochMaxDelta}, st.triples, acked, queries)
	st.reboot = &out
	st.replayEng = out.want
	if out.want != nil {
		checkSamples(newTwin(out.want), st.final)
	}
	return nil
}

// rebootQueries is how many of the run's read queries are checked after
// the run, on the served store and on its reboot.
const rebootQueries = 100

// endToEnd computes the end-to-end metrics and the pass/fail tally.
func (st *runState) endToEnd() {
	r := st.res
	r.Correct = true
	var fails []string
	// The final reads are all due at once, so only the measured phases
	// hold ops to the latency limit.
	count := func(ss []sample, timed bool) {
		for i := range ss {
			s := &ss[i]
			if timed && s.Err == "" && s.latency() > latencyLimit {
				s.fail("deadline: %v > %v", s.latency(), latencyLimit)
			}
			r.Attempted++
			if s.Wrong {
				r.Correct = false
			}
			if s.Err != "" {
				r.Failed++
				fails = append(fails, s.Err)
			}
		}
	}
	count(st.open, true)
	count(st.closed, true)
	count(st.final, false)
	if st.reboot != nil {
		// Every reboot check is a correctness check.
		r.Attempted += st.reboot.attempted
		r.Failed += len(st.reboot.errs)
		r.Correct = r.Correct && len(st.reboot.errs) == 0
		fails = append(fails, st.reboot.errs...)
	}
	if len(fails) > 10 {
		fails = fails[:10]
	}
	r.Failures = fails

	var search, execute, ingestLat []time.Duration
	for _, s := range st.open {
		if s.Search != nil {
			search = append(search, s.SearchLat)
		}
		if s.Exec != nil {
			execute = append(execute, s.ExecLat)
		}
		if s.Ingest != nil {
			ingestLat = append(ingestLat, s.IngestLat)
		}
	}
	st.reportLatency("search", search)
	st.reportLatency("execute", execute)
	st.reportLatency("ingest", ingestLat)

	r.set("capacity_rps", capacity(st.closed, st.closedDur), "ops/s")
	r.set("fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
	if st.w.Backend == "live" {
		r.set("disk_bytes_per_triple", div(float64(st.diskBytes), float64(st.ingested())), "B")
	}
}

// capacity is the median completion rate of good ops over the closed
// loop's whole seconds: a slow spell of the shared host then moves one
// window rather than the run's figure. A phase shorter than a second is
// one window.
func capacity(closed []sample, d time.Duration) float64 {
	n := int(d / time.Second)
	if n < 1 {
		good := 0
		for _, s := range closed {
			if s.Err == "" {
				good++
			}
		}
		return float64(good) / d.Seconds()
	}
	rates := make([]float64, n)
	for _, s := range closed {
		if w := int(s.End / time.Second); s.Err == "" && w < n {
			rates[w]++
		}
	}
	sort.Float64s(rates)
	return (rates[(n-1)/2] + rates[n/2]) / 2
}

// ingested counts the acknowledged triples of the run.
func (st *runState) ingested() int {
	n := 0
	for _, ss := range [][]sample{st.open, st.closed} {
		for _, s := range ss {
			if s.Ingest != nil {
				n += len(s.Ingest.Triples)
			}
		}
	}
	return n
}

// reportLatency reports an op's median and p99 from the open-loop phase;
// the p99 only when ten samples lie beyond it, else the highest
// percentile that has.
func (st *runState) reportLatency(name string, xs []time.Duration) {
	if len(xs) == 0 {
		return
	}
	st.res.Samples[name] = len(xs)
	st.res.set(name+"_p50_ms", percentile(xs, 50), "ms")
	p := highestPercentile(len(xs))
	if p >= 99 {
		p = 99
	}
	if p > 50 {
		st.res.set(fmt.Sprintf("%s_p%g_ms", name, p), percentile(xs, p), "ms")
	}
}

func medianDur(xs []time.Duration) time.Duration {
	ys := append([]time.Duration(nil), xs...)
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	return ys[len(ys)/2]
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
