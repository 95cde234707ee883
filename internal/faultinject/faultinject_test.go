package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestErrorRuleMatchesSiteExactly(t *testing.T) {
	in := New(1, Rule{Shard: 0, Op: OpLookup, Mode: ModeError})
	ctx := context.Background()

	if err := in.Intercept(ctx, Site{Shard: 0, Op: OpLookup}); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching site: got %v, want ErrInjected", err)
	}
	if err := in.Intercept(ctx, Site{Shard: 1, Op: OpLookup}); err != nil {
		t.Fatalf("other shard must pass: %v", err)
	}
	if err := in.Intercept(ctx, Site{Shard: 0, Op: OpJoin}); err != nil {
		t.Fatalf("other op must pass: %v", err)
	}
	if got := in.Fired(0); got != 1 {
		t.Fatalf("Fired(0) = %d, want 1", got)
	}
}

func TestAfterAndCount(t *testing.T) {
	// Skip the first 2 calls, then fail at most 3 times.
	in := New(1, Rule{Shard: Any, Mode: ModeError, After: 2, Count: 3})
	site := Site{Shard: 0, Op: OpJoin}
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, in.Intercept(context.Background(), site) != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire sequence %v, want %v", got, want)
	}
}

func TestHangHonorsContext(t *testing.T) {
	in := New(1, Rule{Shard: Any, Mode: ModeHang})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- in.Intercept(ctx, Site{Op: OpLookup})
	}()
	select {
	case err := <-done:
		t.Fatalf("hang returned before cancel: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hang returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("hang did not release on cancel")
	}
}

func TestDelayDelays(t *testing.T) {
	in := New(1, Rule{Shard: Any, Mode: ModeDelay, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := in.Intercept(context.Background(), Site{Op: OpJoin}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay rule waited only %v", d)
	}
}

func TestPanicMode(t *testing.T) {
	in := New(1, Rule{Shard: Any, Mode: ModePanic})
	defer func() {
		rec := recover()
		pv, ok := rec.(PanicValue)
		if !ok {
			t.Fatalf("recovered %v (%T), want PanicValue", rec, rec)
		}
		if pv.Site.Shard != 3 {
			t.Fatalf("panic site %+v, want shard 3", pv.Site)
		}
	}()
	_ = in.Intercept(context.Background(), Site{Shard: 3, Op: OpJoin})
	t.Fatal("expected panic")
}

// TestProbabilisticDeterminism is the property the whole harness hangs
// on: the same seed must produce the same fire pattern per site, no
// matter how calls from different sites interleave.
func TestProbabilisticDeterminism(t *testing.T) {
	sites := []Site{
		{Shard: 0, Op: OpLookup},
		{Shard: 1, Op: OpLookup},
		{Shard: 0, Op: OpJoin},
	}
	run := func(seed int64, shuffle bool) map[Site][]bool {
		in := New(seed, Rule{Shard: Any, Mode: ModeError, Prob: 0.4})
		out := map[Site][]bool{}
		if !shuffle {
			for _, s := range sites {
				for i := 0; i < 64; i++ {
					out[s] = append(out[s], in.Intercept(context.Background(), s) != nil)
				}
			}
			return out
		}
		// Same calls, maximally interleaved across goroutines.
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, s := range sites {
			wg.Add(1)
			go func(s Site) {
				defer wg.Done()
				seq := make([]bool, 0, 64)
				for i := 0; i < 64; i++ {
					seq = append(seq, in.Intercept(context.Background(), s) != nil)
				}
				mu.Lock()
				out[s] = seq
				mu.Unlock()
			}(s)
		}
		wg.Wait()
		return out
	}

	serial := run(42, false)
	concurrent := run(42, true)
	other := run(7, false)
	fired := 0
	for _, s := range sites {
		if fmt.Sprint(serial[s]) != fmt.Sprint(concurrent[s]) {
			t.Fatalf("site %+v: concurrent schedule changed outcomes", s)
		}
		for _, f := range serial[s] {
			if f {
				fired++
			}
		}
	}
	if fired == 0 || fired == 64*len(sites) {
		t.Fatalf("prob=0.4 fired %d/%d times — not probabilistic", fired, 64*len(sites))
	}
	same := true
	for _, s := range sites {
		if fmt.Sprint(serial[s]) != fmt.Sprint(other[s]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical outcomes")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	in := New(1,
		Rule{Shard: 0, Mode: ModeError},
		Rule{Shard: Any, Mode: ModeDelay, Delay: time.Hour},
	)
	// Shard 0 hits the error rule, never the hour-long delay behind it.
	start := time.Now()
	err := in.Intercept(context.Background(), Site{Shard: 0, Op: OpLookup})
	if !errors.Is(err, ErrInjected) || time.Since(start) > time.Second {
		t.Fatalf("err=%v after %v; want immediate injected error", err, time.Since(start))
	}
}

func TestParse(t *testing.T) {
	rules, err := Parse("error,shard=0,op=lookup; delay,delay=50ms,prob=0.3,after=2,count=4 ; hang,shard=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules", len(rules))
	}
	r := rules[0]
	if r.Mode != ModeError || r.Shard != 0 || r.Op != OpLookup {
		t.Fatalf("rule 0 = %+v", r)
	}
	r = rules[1]
	if r.Mode != ModeDelay || r.Delay != 50*time.Millisecond || r.Prob != 0.3 || r.After != 2 || r.Count != 4 {
		t.Fatalf("rule 1 = %+v", r)
	}
	r = rules[2]
	if r.Mode != ModeHang || r.Shard != 1 || r.Op != "" {
		t.Fatalf("rule 2 = %+v", r)
	}

	for bad, want := range map[string]string{
		"":                    "no rules",
		"explode":             "unknown mode",
		"error,shard=x":       "bad shard",
		"delay,shard=1":       "needs delay=", // delay mode without a duration
		"error,frequency=0.5": `unknown key "frequency"`,
		"error,replica=1":     `unknown key "replica"`, // shards have no replicas
	} {
		_, err := Parse(bad)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error naming %s", bad, err, want)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Intercept(context.Background(), Site{}); err != nil {
		t.Fatal(err)
	}
}
