package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/rdf"
)

// The chaos suite: deterministic fault injection at the shard
// transports. Every test uses a fixed injector seed; the probabilistic
// cases are reproducible because injected outcomes are keyed to the
// per-site call ordinal, not to goroutine interleaving.

func chaosTriples(tb testing.TB) []rdf.Triple {
	tb.Helper()
	return datagen.DBLPTriples(datagen.DBLPConfig{Publications: 150, Seed: 3})
}

func chaosCluster(tb testing.TB, shards int) *Cluster {
	tb.Helper()
	b := NewBuilder(shards, engine.Config{K: 5})
	b.AddTriples(chaosTriples(tb))
	return b.Build()
}

func mustCoverage(t *testing.T, cl *Cluster, kws []string) *exec.Coverage {
	t.Helper()
	_, info, err := cl.SearchKContext(context.Background(), kws, 0)
	if err != nil {
		t.Fatalf("search %v: %v", kws, err)
	}
	if info.Coverage == nil {
		t.Fatalf("search %v: no coverage block", kws)
	}
	return info.Coverage
}

// TestDegradedPartialResults: with shard 0 erroring on every call,
// searches must still answer from the surviving shards, with
// ShardsFailed=1 in the coverage block.
func TestDegradedPartialResults(t *testing.T) {
	cl := chaosCluster(t, 3)
	cl.SetInjector(faultinject.New(1,
		faultinject.Rule{Shard: 0, Mode: faultinject.ModeError},
	))

	kws := []string{"publication"}
	cands, info, err := cl.SearchKContext(context.Background(), kws, 0)
	if err != nil {
		t.Fatalf("degraded search must still answer: %v", err)
	}
	cov := info.Coverage
	if cov == nil || cov.ShardsFailed != 1 || cov.ShardsAnswered != 2 {
		t.Fatalf("degraded coverage: %+v", cov)
	}
	if !cov.Degraded() {
		t.Fatal("coverage must report degraded")
	}
	if len(cands) == 0 {
		t.Fatal("degraded search returned no candidates")
	}
	rs, err := cl.ExecuteLimitContext(context.Background(), cands[0], 0)
	if err != nil {
		t.Fatalf("degraded execute must still answer: %v", err)
	}
	ecov := rs.Stats.Coverage
	if ecov == nil || ecov.ShardsFailed != 1 {
		t.Fatalf("degraded execute coverage: %+v", ecov)
	}
}

// TestAllShardsDown: every shard failing is an error, not an empty
// success.
func TestAllShardsDown(t *testing.T) {
	cl := chaosCluster(t, 2)
	cl.SetInjector(faultinject.New(1,
		faultinject.Rule{Shard: faultinject.Any, Mode: faultinject.ModeError},
	))
	_, _, err := cl.SearchKContext(context.Background(), []string{"publication"}, 0)
	if !errors.Is(err, ErrGroupDown) {
		t.Fatalf("want ErrGroupDown, got %v", err)
	}
}

// TestReplicaPanicContained: a shard whose transport panics must
// surface as a degraded answer from the surviving shard, never as a
// process crash, with the panic counted once per query in coverage (the
// shard is down after its first failure).
func TestReplicaPanicContained(t *testing.T) {
	cl := chaosCluster(t, 2)
	cl.SetInjector(faultinject.New(1,
		faultinject.Rule{Shard: 0, Mode: faultinject.ModePanic},
	))
	cands, info, err := cl.SearchKContext(context.Background(), []string{"publication"}, 0)
	if err != nil {
		t.Fatalf("search with a panicking shard must still answer: %v", err)
	}
	cov := info.Coverage
	if cov.Panics != 1 || cov.ShardsFailed != 1 || cov.ShardsAnswered != 1 || !cov.Degraded() {
		t.Fatalf("search coverage: %+v", cov)
	}
	if len(cands) == 0 {
		t.Fatal("degraded search returned no candidates")
	}
	rs, err := cl.ExecuteLimitContext(context.Background(), cands[0], 0)
	if err != nil {
		t.Fatalf("execute with a panicking shard must still answer: %v", err)
	}
	if ecov := rs.Stats.Coverage; ecov.Panics != 1 || ecov.ShardsFailed != 1 || !ecov.Degraded() {
		t.Fatalf("execute coverage: %+v", ecov)
	}
}

// TestMidJoinCancellation cancels an execute while a join step hangs on
// an injected fault, asserting the cancellation propagates as
// context.Canceled and no goroutines leak (the hang honors ctx, and
// scatterStep waits for every shard goroutine).
func TestMidJoinCancellation(t *testing.T) {
	cl := chaosCluster(t, 3)

	cands, _, err := cl.SearchKContext(context.Background(), []string{"thanh tran", "publication"}, 0)
	if err != nil || len(cands) == 0 {
		t.Fatalf("search: %v", err)
	}

	cl.SetInjector(faultinject.New(1,
		faultinject.Rule{Shard: 1, Op: faultinject.OpJoin, Mode: faultinject.ModeHang},
	))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.ExecuteLimitContext(ctx, cands[0], 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the join step reach the hang
	cancel()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("execute did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// All scatter goroutines must drain; allow the runtime a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSeedMatrix: probabilistic faults must be reproducible — the
// same seed on two identically built clusters yields the identical
// degraded outcome (results and coverage), across modes and seeds.
func TestChaosSeedMatrix(t *testing.T) {
	kws := []string{"thanh tran", "publication"}

	outcome := func(seed int64, rules []faultinject.Rule) string {
		cl := chaosCluster(t, 3)
		cl.SetInjector(faultinject.New(seed, rules...))
		cands, info, err := cl.SearchKContext(context.Background(), kws, 0)
		if err != nil {
			return fmt.Sprintf("err=%v cov=%+v", err, info.Coverage)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "cov=%+v\n", *info.Coverage)
		for _, c := range cands {
			fmt.Fprintf(&b, "%v %s\n", c.Cost, c.SPARQL())
		}
		if len(cands) > 0 {
			rs, err := cl.ExecuteLimitContext(context.Background(), cands[0], 0)
			if err != nil {
				fmt.Fprintf(&b, "exec err=%v\n", err)
			} else {
				fmt.Fprintf(&b, "exec cov=%+v rows=%d\n", *rs.Stats.Coverage, rs.Len())
			}
		}
		return b.String()
	}

	ruleSets := map[string][]faultinject.Rule{
		"prob-error": {{Shard: faultinject.Any, Mode: faultinject.ModeError, Prob: 0.4}},
		"prob-error-lookup": {{Shard: faultinject.Any, Op: faultinject.OpLookup,
			Mode: faultinject.ModeError, Prob: 0.6}},
		"after-count": {{Shard: 1, Mode: faultinject.ModeError, After: 1, Count: 3}},
	}
	for name, rules := range ruleSets {
		for _, seed := range []int64{1, 7, 42} {
			a := outcome(seed, rules)
			b := outcome(seed, rules)
			if a != b {
				t.Fatalf("%s seed=%d: outcomes differ:\nfirst:\n%s\nsecond:\n%s", name, seed, a, b)
			}
		}
	}
}

// TestInjectorRemoval: SetInjector(nil) restores direct transports and
// full coverage.
func TestInjectorRemoval(t *testing.T) {
	cl := chaosCluster(t, 2)
	inj := faultinject.New(1, faultinject.Rule{Shard: 0, Mode: faultinject.ModeError})
	cl.SetInjector(inj)
	if cov := mustCoverage(t, cl, []string{"publication"}); cov.ShardsFailed != 1 {
		t.Fatalf("with injector: %+v", cov)
	}
	cl.SetInjector(nil)
	if cov := mustCoverage(t, cl, []string{"publication"}); cov.ShardsFailed != 0 {
		t.Fatalf("after removal: %+v", cov)
	}
}
