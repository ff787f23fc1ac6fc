package service

import (
	"context"

	"recmech/internal/trace"
)

// Tracing policy (see DESIGN.md "Per-query tracing"): a query is traced
// when it is about to do expensive work — the plan cache holds no completed
// plan for its key, so a fresh compile (or a join onto someone else's
// in-flight compile) follows, or the plan is not primed, so the release
// solves LPs (the first release on a plan Plan.Advance built for a changed
// generation re-solves the whole ladder) — when the 1-in-N warm sampler
// fires (Config.TraceSampleEvery, off by default), or when the caller
// forces it (async job items, so every batch item is attributable after
// the fact). A prepare or advise draws no release, so it is traced only
// when no completed plan is cached. At default settings the primed hot path
// therefore never starts a trace and pays only a plan-cache peek plus
// nil-span no-ops.

// primed reports whether the plan cache holds a completed plan for pk that
// is primed (see plan.Plan.Primed). In-flight compiles report false, so a
// coalesced waiter of a slow compile is traced like its leader.
func (s *Service) primed(pk string) bool {
	pl, ok := s.plans.Peek(pk)
	return ok && pl.Primed()
}

// Tracer exposes the service's span recorder, for wiring the slow-query log
// (cmd/recmechd) and for tests.
func (s *Service) Tracer() *trace.Tracer { return s.tr }

// Traces lists summaries of recently completed traces, newest first
// (GET /v1/traces). The ring is bounded by Config.TraceRingEntries.
func (s *Service) Traces() []trace.Summary { return s.tr.Recent() }

// Trace returns one retained trace's full span tree by ID
// (GET /v1/traces/{id}), failing with ErrUnknownTrace (404) when the ID is
// unknown or already evicted from the ring.
func (s *Service) Trace(id string) (*trace.TraceData, error) {
	td, ok := s.tr.Get(id)
	if !ok {
		return nil, failf(ErrUnknownTrace, "unknown trace %q", id)
	}
	return td, nil
}

// noteTrace records a finished trace's ID in ctx's request-info slot, if
// any, so the caller can name it (header, access log, job item).
func noteTrace(ctx context.Context, id string) {
	if ri := reqInfoOf(ctx); ri != nil {
		ri.traceID = id
	}
}

// annotateRoot stamps the request identity on a trace's root span. The
// attributes are all caller-supplied (nothing derived from the data), so
// exposing them through /v1/traces discloses nothing a query logger would
// not already hold.
func annotateRoot(root *trace.Span, ds *Dataset, req *Request) {
	root.Str("dataset", ds.Name).Str("kind", req.Kind).
		Str("privacy", req.Privacy).Float("epsilon", req.Epsilon)
	// The resolved compile tier, for sampled plans only (exact traces keep
	// their pre-estimator shape): callers annotate after resolveMode, so
	// "auto" never appears here.
	if req.Mode == ModeSampled {
		root.Str("mode", ModeSampled)
		if req.spec != nil {
			root.Int("samples", int64(req.spec.SampleBudget))
		}
	}
}
