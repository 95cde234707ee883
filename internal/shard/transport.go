package shard

import (
	"context"
	"errors"

	"repro/internal/faultinject"
	"repro/internal/keywordindex"
)

// Transport is the narrow per-shard call seam of the cluster: the two
// operations the coordinator scatters — a keyword lookup during search
// and one bind-join step during distributed execute. Every shard call
// goes through exactly one Transport, so the fault-injection harness
// scripts failures by wrapping it, and a future network cut replaces it
// with an RPC client without touching the coordinator's orchestration.
//
// Implementations must be safe for concurrent use and must honor ctx:
// request deadlines and cancellation reach the shard through it. The
// signatures use the coordinator's in-process types on purpose — the
// wire protocol (ROADMAP: "cut the cluster at a real network boundary")
// will serialize these frames as-is.
type Transport interface {
	// Lookup maps one keyword against the shard's local keyword index.
	Lookup(ctx context.Context, keyword string, opts keywordindex.LookupOptions) (*keywordindex.RawLookup, error)
	// EvalStep runs one join step against the shard's owned partition,
	// appending extensions into out (see Shard.evalStep).
	EvalStep(ctx context.Context, spec stepSpec, parents *bindTable, out []ext) ([]ext, int64, bool, error)
}

// directTransport is the in-process Transport: direct method calls on
// the Shard.
type directTransport struct {
	sh *Shard
}

func (t directTransport) Lookup(ctx context.Context, keyword string, opts keywordindex.LookupOptions) (*keywordindex.RawLookup, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.sh.kwix.LookupRaw(keyword, opts), nil
}

func (t directTransport) EvalStep(ctx context.Context, spec stepSpec, parents *bindTable, out []ext) ([]ext, int64, bool, error) {
	return t.sh.evalStep(ctx, spec, parents, out)
}

// faultTransport consults a faultinject.Injector before every delegated
// call — the test-only wrapper SetInjector installs. An injected hang
// blocks until ctx is cancelled (the request deadline or the client
// going away); an injected panic propagates and is converted to a shard
// failure by the scatter's recover.
type faultTransport struct {
	inner Transport
	inj   *faultinject.Injector
	shard int
}

func (t faultTransport) Lookup(ctx context.Context, keyword string, opts keywordindex.LookupOptions) (*keywordindex.RawLookup, error) {
	if err := t.inj.Intercept(ctx, faultinject.Site{Shard: t.shard, Op: faultinject.OpLookup}); err != nil {
		return nil, err
	}
	return t.inner.Lookup(ctx, keyword, opts)
}

func (t faultTransport) EvalStep(ctx context.Context, spec stepSpec, parents *bindTable, out []ext) ([]ext, int64, bool, error) {
	if err := t.inj.Intercept(ctx, faultinject.Site{Shard: t.shard, Op: faultinject.OpJoin}); err != nil {
		return out, 0, false, err
	}
	return t.inner.EvalStep(ctx, spec, parents, out)
}

// SetInjector wraps every shard's transport with the injector (nil
// restores the direct transports). Call it before serving traffic — the
// chaos harness and serverd -chaos both configure it at startup;
// transports are read without synchronization by in-flight calls.
func (c *Cluster) SetInjector(inj *faultinject.Injector) {
	trs := make([]Transport, len(c.shards))
	for i, sh := range c.shards {
		trs[i] = directTransport{sh: sh}
		if inj != nil {
			trs[i] = faultTransport{inner: trs[i], inj: inj, shard: i}
		}
	}
	c.transports = trs
}

// ErrGroupDown reports a scattered call that no shard answered: every
// shard failed (errored or panicked). A query that loses only some
// shards does not fail — the coordinator converts those losses into
// degraded coverage.
var ErrGroupDown = errors.New("shard: group unavailable")
