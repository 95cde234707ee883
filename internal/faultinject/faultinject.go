// Package faultinject is the deterministic fault-injection harness
// behind the cluster's resilience tests and serverd's -chaos flag: a
// seed-driven Injector that intercepts calls at the shard transport seam
// (internal/shard.Transport) and scripts exact failure sequences —
// fixed or probabilistic delays, errors, hangs that last until the call's
// context is cancelled, and panics — per shard and per operation.
//
// Determinism is the design constraint everything else bends around: a
// chaos test that cannot replay its failures cannot assert anything. Two
// properties deliver it:
//
//   - Probabilistic rules draw from a counter-keyed hash
//     (seed, site, per-site call ordinal), not from a shared stream, so
//     the decision for "the 3rd join call on shard 1" is the same no
//     matter how goroutines interleave.
//   - Counted rules (After/Count) keep one atomic-free match counter per
//     rule per site under a single mutex, so "fail the first 4 calls,
//     then recover" means exactly that on every run.
//
// The injector is pure policy: it never imports the packages it breaks.
// internal/shard threads it behind its Transport interface; anything
// else with a (shard, op) call structure can do the same.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Operation names used by internal/shard's transport seam. The injector
// itself treats ops as opaque strings; these constants just keep tests
// and the -chaos parser in one vocabulary.
const (
	OpLookup = "lookup" // per-keyword index lookup (search scatter)
	OpJoin   = "join"   // one bind-join step (distributed execute)
)

// Mode is what a matched rule does to the intercepted call.
type Mode int

const (
	// ModeDelay sleeps for Rule.Delay, then lets the call proceed.
	ModeDelay Mode = iota
	// ModeError fails the call with ErrInjected.
	ModeError
	// ModeHang blocks until the call's context is cancelled, then
	// returns the context error — a dead shard that never answers.
	ModeHang
	// ModePanic panics, simulating a crashing shard.
	ModePanic
)

// String renders the mode in the -chaos spec vocabulary.
func (m Mode) String() string {
	switch m {
	case ModeDelay:
		return "delay"
	case ModeError:
		return "error"
	case ModeHang:
		return "hang"
	case ModePanic:
		return "panic"
	}
	return "unknown"
}

// Any matches every shard in a Rule.
const Any = -1

// Rule is one fault: where it applies (Shard/Op, Any/"" as wildcards), what it does (Mode + Delay), and when it fires (After
// skips the first N matching calls per site, Count caps total fires per
// site, Prob fires probabilistically — deterministically keyed to the
// call ordinal).
type Rule struct {
	Shard int    // shard index, or Any
	Op    string // operation name, or "" for any
	Mode  Mode
	// Delay is the injected latency for ModeDelay.
	Delay time.Duration
	// Prob in (0, 1) fires the rule on that fraction of matching calls,
	// decided per call ordinal from the injector seed. 0 or ≥ 1 means
	// always fire.
	Prob float64
	// After skips the first After matching calls (per site) before the
	// rule arms.
	After int
	// Count caps how many times the rule fires per site (0 = unlimited).
	Count int
}

func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s", r.Mode)
	if r.Shard != Any {
		fmt.Fprintf(&b, ",shard=%d", r.Shard)
	}
	if r.Op != "" {
		fmt.Fprintf(&b, ",op=%s", r.Op)
	}
	if r.Mode == ModeDelay {
		fmt.Fprintf(&b, ",delay=%s", r.Delay)
	}
	if r.Prob > 0 && r.Prob < 1 {
		fmt.Fprintf(&b, ",prob=%g", r.Prob)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, ",after=%d", r.After)
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, ",count=%d", r.Count)
	}
	return b.String()
}

// Site identifies one intercepted call: which shard and which
// operation.
type Site struct {
	Shard int
	Op    string
}

// ErrInjected is the sentinel all ModeError failures wrap; callers
// distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected error")

// injectedError carries the site so degraded-path logs say which
// scripted fault fired.
type injectedError struct{ site Site }

func (e *injectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at shard %d op %s",
		e.site.Shard, e.site.Op)
}

func (e *injectedError) Unwrap() error { return ErrInjected }

// PanicValue is what ModePanic panics with, so recover sites can
// recognize scripted panics in assertions.
type PanicValue struct{ Site Site }

func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at shard %d op %s",
		p.Site.Shard, p.Site.Op)
}

// ruleState pairs a rule with its per-site bookkeeping.
type ruleState struct {
	rule    Rule
	matched map[Site]int // matching calls seen, keyed by exact site
	fired   map[Site]int // times the rule actually fired per site
}

// Injector applies an ordered rule list to intercepted calls. Safe for
// concurrent use; all randomness derives from the seed and per-site call
// ordinals, so outcomes are reproducible regardless of goroutine
// interleaving.
type Injector struct {
	seed int64

	mu    sync.Mutex
	rules []*ruleState
}

// New builds an injector from a seed and an ordered rule list. The first
// rule matching an armed site wins per call.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{seed: seed}
	for _, r := range rules {
		in.rules = append(in.rules, &ruleState{
			rule:    r,
			matched: map[Site]int{},
			fired:   map[Site]int{},
		})
	}
	return in
}

// splitmix64 is the counter-keyed hash behind probabilistic rules: a
// tiny, well-mixed PRF that turns (seed, site, ordinal) into an
// independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(s Site) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(int64(s.Shard)))
	for i := 0; i < len(s.Op); i++ {
		mix(uint64(s.Op[i]))
	}
	return h
}

// draw returns the deterministic uniform [0,1) decision for the n-th
// matching call at a site.
func (in *Injector) draw(s Site, n int) float64 {
	v := splitmix64(uint64(in.seed) ^ siteHash(s) ^ splitmix64(uint64(n)))
	return float64(v>>11) / float64(1<<53)
}

// decide picks the firing rule for a site, if any, under the mutex; the
// blocking actions themselves (delay, hang) run outside it.
func (in *Injector) decide(s Site) (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		r := rs.rule
		if r.Shard != Any && r.Shard != s.Shard {
			continue
		}
		if r.Op != "" && r.Op != s.Op {
			continue
		}
		n := rs.matched[s]
		rs.matched[s] = n + 1
		if n < r.After {
			continue
		}
		if r.Count > 0 && rs.fired[s] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.draw(s, n) >= r.Prob {
			continue
		}
		rs.fired[s]++
		return r, true
	}
	return Rule{}, false
}

// Intercept applies the first matching armed rule to a call at site s.
// It returns nil when the call should proceed (possibly after an
// injected delay), an error when the call should fail, and panics for
// ModePanic. ModeHang blocks until ctx is done and returns ctx.Err() —
// exactly the shape of a shard that will never answer.
func (in *Injector) Intercept(ctx context.Context, s Site) error {
	if in == nil {
		return nil
	}
	r, fire := in.decide(s)
	if !fire {
		return nil
	}
	switch r.Mode {
	case ModeDelay:
		t := time.NewTimer(r.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case ModeError:
		return &injectedError{site: s}
	case ModeHang:
		<-ctx.Done()
		return ctx.Err()
	case ModePanic:
		panic(PanicValue{Site: s})
	}
	return nil
}

// Fired returns how many times rule i has fired, summed over sites —
// the assertion hook chaos tests use to prove a scripted fault actually
// ran.
func (in *Injector) Fired(i int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if i < 0 || i >= len(in.rules) {
		return 0
	}
	total := 0
	for _, n := range in.rules[i].fired {
		total += n
	}
	return total
}

// ---------------------------------------------------------------------------
// Spec parsing (serverd -chaos)

// Parse reads a chaos spec: rules separated by ';', each a ','-separated
// list of key=value pairs. Keys: mode (delay|error|hang|panic, required),
// shard, op, delay (Go duration), prob, after, count.
//
//	error,shard=0,op=lookup
//	delay,delay=50ms,prob=0.3;hang,shard=2
//
// A bare mode name is accepted in place of mode=<name>.
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r := Rule{Shard: Any, Mode: -1}
		for _, kv := range strings.Split(part, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, hasVal := strings.Cut(kv, "=")
			if !hasVal {
				// Bare token: a mode name.
				val, key = key, "mode"
			}
			var err error
			switch key {
			case "mode":
				switch val {
				case "delay":
					r.Mode = ModeDelay
				case "error":
					r.Mode = ModeError
				case "hang":
					r.Mode = ModeHang
				case "panic":
					r.Mode = ModePanic
				default:
					return nil, fmt.Errorf("faultinject: unknown mode %q in rule %q", val, part)
				}
			case "shard":
				r.Shard, err = strconv.Atoi(val)
			case "op":
				r.Op = val
			case "delay":
				r.Delay, err = time.ParseDuration(val)
			case "prob":
				r.Prob, err = strconv.ParseFloat(val, 64)
			case "after":
				r.After, err = strconv.Atoi(val)
			case "count":
				r.Count, err = strconv.Atoi(val)
			default:
				return nil, fmt.Errorf("faultinject: unknown key %q in rule %q", key, part)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad %s in rule %q: %v", key, part, err)
			}
		}
		if r.Mode < 0 {
			return nil, fmt.Errorf("faultinject: rule %q names no mode", part)
		}
		if r.Mode == ModeDelay && r.Delay <= 0 {
			return nil, fmt.Errorf("faultinject: delay rule %q needs delay=<duration>", part)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q contains no rules", spec)
	}
	return rules, nil
}
