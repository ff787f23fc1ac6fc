package service

import (
	"context"
	"math"

	"recmech/internal/estimate"
	"recmech/internal/mechanism"
	"recmech/internal/plan"
)

// DefaultTail is the tail parameter c substituted when an accuracy request
// omits one (alias of the plan package's constant, which owns the choice).
const DefaultTail = plan.DefaultTail

// AdviseRequest is the body of POST /v2/advise: a query workload (the same
// shape as a Request — nothing is released and zero ε is spent) plus the
// accuracy question being asked. Epsilon asks "what error at this ε"
// (the server default when omitted); TargetError, when positive, also asks
// the inverse "what ε for this error". Tail is the Theorem 1 tail
// parameter c (> 0), defaulting to DefaultTail.
type AdviseRequest struct {
	Request
	TargetError float64 `json:"targetError,omitempty"`
	Tail        float64 `json:"tail,omitempty"`
}

// AccuracyInfo is one evaluated Theorem 1 utility profile: with
// probability at least 1 − FailureProb, a release at Epsilon lands within
// Error of the true answer. Error = NoiseTerm + ClampTerm (the Laplace
// noise at the inflated scale Δ̂, and the clamping loss of X).
//
// The profile is computed from the sensitive data (via G_{|P|}) and is not
// itself differentially private: it reaches tenants only on servers that
// opted in via Config.ExposeAccuracy (see DESIGN.md).
type AccuracyInfo struct {
	Epsilon     float64 `json:"epsilon"`
	Tail        float64 `json:"tail"`
	Error       float64 `json:"error"`
	FailureProb float64 `json:"failureProb"`
	NoiseTerm   float64 `json:"noiseTerm"`
	ClampTerm   float64 `json:"clampTerm"`
	// SamplerTerm is the estimator's concentration-bound error contribution
	// for a sampled release (Error = NoiseTerm + SamplerTerm there, and
	// FailureProb folds in the contract's failure mass by union bound).
	// Zero — and omitted — for exact releases.
	SamplerTerm float64 `json:"samplerTerm,omitempty"`
}

func accuracyInfo(epsilon, tail float64, b mechanism.AccuracyBound) AccuracyInfo {
	return AccuracyInfo{
		Epsilon:     epsilon,
		Tail:        tail,
		Error:       b.Error,
		FailureProb: b.FailureProb,
		NoiseTerm:   b.NoiseTerm,
		ClampTerm:   b.ClampTerm,
		SamplerTerm: b.SamplerTerm,
	}
}

// EstimateInfo is a sampled plan's estimator contract as surfaced to
// tenants: the sampling method, the budget it ran at, and the concentration
// bound — deliberately never the estimate itself, which approximates the
// true answer and is not differentially private.
type EstimateInfo struct {
	Method     string  `json:"method"`
	Samples    int     `json:"samples"`
	Confidence float64 `json:"confidence"`
	AbsError   float64 `json:"absError"`
	RelError   float64 `json:"relError"`
}

func estimateInfo(res estimate.Result) EstimateInfo {
	return EstimateInfo{
		Method:     res.Method,
		Samples:    res.Samples,
		Confidence: res.Contract.Confidence,
		AbsError:   res.Contract.AbsError,
		RelError:   res.Contract.RelError,
	}
}

// EpsilonAdvice answers the inverse accuracy question: the smallest ε
// whose Theorem 1 bound meets TargetError, and the profile actually
// achieved there. The advice ignores per-query ε ceilings and the
// dataset's remaining budget — it reports what the accuracy demands, and
// the caller decides whether that spend is admissible.
type EpsilonAdvice struct {
	TargetError float64      `json:"targetError"`
	Epsilon     float64      `json:"epsilon"`
	Accuracy    AccuracyInfo `json:"accuracy"`
}

// AdviseInfo is the POST /v2/advise response. Zero ε was spent producing
// it; AtEpsilon is always present (the request's ε, or the server default),
// ForTargetError only when the request asked the inverse question.
type AdviseInfo struct {
	Dataset string `json:"dataset"`
	Kind    string `json:"kind"`
	Privacy string `json:"privacy"`
	// Mode is the resolved compile tier the advice describes: a sampled
	// plan's bounds compose the estimator contract with the DP noise (see
	// AccuracyInfo.SamplerTerm and DESIGN.md "Estimator error vs. DP noise").
	Mode string `json:"mode,omitempty"`
	// AlreadyPrepared is true when the workload's plan was cached before
	// this call (an advise may compile, exactly like a prepare).
	AlreadyPrepared bool           `json:"alreadyPrepared"`
	AtEpsilon       *AccuracyInfo  `json:"atEpsilon"`
	ForTargetError  *EpsilonAdvice `json:"forTargetError,omitempty"`
	// Estimate is the sampled plan's estimator contract (never the estimate
	// value itself); nil for exact plans.
	Estimate *EstimateInfo `json:"estimate,omitempty"`
	// TraceID names the span tree recorded when this advise compiled a
	// plan; fetch it at GET /v1/traces/{id}.
	TraceID string `json:"traceId,omitempty"`
}

// Advise answers accuracy questions about a workload at zero ε: the
// Theorem 1 error bound at the request's ε, and (when TargetError is set)
// the smallest ε meeting that target. The workload's plan is fetched or
// compiled exactly as a Prepare would — so an advise doubles as a warm-up
// — but no noise is drawn and no budget moves.
//
// Fails with ErrAccuracyDisabled (HTTP 403) unless Config.ExposeAccuracy
// is set: the bound derives from the sensitive data and per-query exposure
// is an explicit operator decision (see DESIGN.md).
func (s *Service) Advise(ctx context.Context, req AdviseRequest) (AdviseInfo, error) {
	if !s.cfg.ExposeAccuracy {
		return AdviseInfo{}, failf(ErrAccuracyDisabled, "accuracy reporting is not enabled on this server (start recmechd with -expose-accuracy; the bound is data-dependent — see DESIGN.md)")
	}
	tail := req.Tail
	if tail == 0 {
		tail = DefaultTail
	}
	if math.IsNaN(tail) || math.IsInf(tail, 0) || tail <= 0 {
		return AdviseInfo{}, failf(ErrInvalidTail, "tail parameter must be positive and finite, got %g", tail)
	}
	if t := req.TargetError; math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return AdviseInfo{}, badRequestf("targetError must be positive and finite, got %g", t)
	}
	pp, err := s.planFor(ctx, "advise", &req.Request, false)
	if err != nil {
		return AdviseInfo{}, err
	}
	info := AdviseInfo{
		Dataset:         pp.ds.Name,
		Kind:            req.Kind,
		Privacy:         req.Privacy,
		Mode:            req.Mode,
		AlreadyPrepared: pp.hit,
		TraceID:         pp.traceID,
	}
	if res, ok := pp.pl.EstimateResult(); ok {
		est := estimateInfo(res)
		info.Estimate = &est
	}
	b, err := pp.pl.ErrorProfile(req.Epsilon, tail)
	if err != nil {
		return AdviseInfo{}, asRequestError(err)
	}
	at := accuracyInfo(req.Epsilon, tail, b)
	info.AtEpsilon = &at
	if req.TargetError > 0 {
		eps, ab, err := pp.pl.EpsilonFor(req.TargetError, tail)
		if err != nil {
			return AdviseInfo{}, asRequestError(err)
		}
		info.ForTargetError = &EpsilonAdvice{
			TargetError: req.TargetError,
			Epsilon:     eps,
			Accuracy:    accuracyInfo(eps, tail, ab),
		}
	}
	return info, nil
}
