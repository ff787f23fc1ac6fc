package plan

import (
	"context"
	"hash/fnv"
	"math"
	"time"

	"recmech/internal/estimate"
	"recmech/internal/graph"
	"recmech/internal/mechanism"
	"recmech/internal/noise"
	"recmech/internal/subgraph"
	"recmech/internal/trace"
)

// Compile tiers a Spec can request. The serving layer's wire-level "auto"
// resolves to one of these before the spec reaches Compile.
const (
	ModeExact   = "exact"
	ModeSampled = "sampled"
)

// sampledState is everything a sampled plan carries instead of the LP-backed
// sequences: the estimator run (estimate + accuracy contract) and the
// degree-derived sensitivity cap its Laplace releases are calibrated to.
// Like Δ and the sequences of an exact plan, the estimate is a sensitive
// intermediate — only released values leave the trust boundary.
type sampledState struct {
	res estimate.Result
	cap float64
}

// compileSampled is CompileContext's estimator tier: instead of exhaustive
// enumeration and the LP encoding, run the kind's sampling estimator and
// derive the release sensitivity cap. The samplers draw from a private RNG
// stream seeded deterministically from the spec's canonical identity
// (sampleSeed), so compiling the same workload twice — on any machine, at
// any parallelism — yields bit-identical estimates, which is what keeps the
// recorded-release WAL and golden replay stable in sampled mode.
func compileSampled(ctx context.Context, src Source, spec *Spec) (*Plan, error) {
	if src.Graph == nil {
		return nil, specErrorf("mode %q needs a graph dataset", ModeSampled)
	}
	csp := trace.Child(ctx, "plan.compile")
	csp.Str("kind", spec.Kind).Str("privacy", spec.Privacy()).Str("mode", ModeSampled)
	t0 := time.Now()
	esp := trace.StartChild(csp, "estimate")
	res, err := runEstimator(src.Graph, spec)
	esp.Int("samples", int64(res.Samples))
	esp.End()
	if err != nil {
		csp.Str("error", err.Error())
		csp.End()
		return nil, err
	}
	cap, err := sampledCap(spec, src.Graph)
	if err != nil {
		csp.Str("error", err.Error())
		csp.End()
		return nil, err
	}
	prof := CompileProfile{
		Kind:         spec.Kind,
		Privacy:      spec.Privacy(),
		Mode:         ModeSampled,
		Samples:      res.Samples,
		BuildSeconds: res.Seconds,
		TotalSeconds: time.Since(t0).Seconds(),
	}
	csp.Int("samples", int64(res.Samples))
	csp.End()
	return &Plan{
		kind:     spec.Kind,
		nodeLike: spec.nodeLike(),
		live:     newLiveSet(),
		profile:  prof,
		sampled:  &sampledState{res: res, cap: cap},
	}, nil
}

func runEstimator(g *graph.Graph, spec *Spec) (estimate.Result, error) {
	rng := noise.NewRand(sampleSeed(spec))
	opt := estimate.Options{Samples: spec.SampleBudget}
	switch spec.Kind {
	case KindTriangles:
		return estimate.Triangles(g, rng, opt), nil
	case KindKStars:
		return estimate.KStars(g, spec.K, rng, opt), nil
	case KindKTriangles:
		return estimate.KTriangles(g, spec.K, rng, opt), nil
	case KindPattern:
		p, err := spec.pattern()
		if err != nil {
			return estimate.Result{}, err
		}
		return estimate.Pattern(g, p, rng, opt), nil
	}
	return estimate.Result{}, specErrorf("mode %q does not apply to kind %q", ModeSampled, spec.Kind)
}

// sampleSeed derives the estimator's RNG seed from the spec's canonical
// identity (which includes the sample budget), so the sampled stream is a
// pure function of the workload — never of scheduling, machine shape, or
// which process compiles it.
func sampleSeed(spec *Spec) int64 {
	key, err := spec.Key()
	if err != nil {
		key = spec.Kind // unreachable after Validate; any fixed fallback is fine
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int64(h.Sum64())
}

// sampledCap returns the sensitivity cap a sampled release's Laplace scale
// derives from: an upper bound on how much the true count can change when
// one node (node privacy) or one edge (edge privacy) is removed, evaluated
// at the graph's maximum degree. These are local-sensitivity-style bounds —
// dmax is data-dependent, so the resulting guarantee is conditioned on
// treating the degree bound as public; DESIGN.md ("Estimator error vs. DP
// noise") spells out this caveat and why exact mode has no such condition.
// The cap is clamped to ≥ 1 (matching the mechanism's θ floor) and must be
// finite: a workload whose bound overflows float64 is rejected at compile
// time rather than released under meaningless noise.
func sampledCap(spec *Spec, g *graph.Graph) (float64, error) {
	d := g.MaxDegree()
	df := float64(d)
	var cap float64
	switch spec.Kind {
	case KindTriangles:
		if spec.EdgePrivacy {
			// Removing edge {u,v} destroys one triangle per common neighbor.
			cap = df - 1
		} else {
			// Removing node v destroys the triangles over its neighbor pairs.
			cap = subgraph.Binomial(d, 2)
		}
	case KindKStars:
		if spec.EdgePrivacy {
			// Removing {u,v} drops C(deg,k) by C(deg−1,k−1) at both ends.
			cap = 2 * subgraph.Binomial(d-1, spec.K-1)
		} else {
			// The center's own stars plus the drop at each neighbor.
			cap = subgraph.Binomial(d, spec.K) + df*subgraph.Binomial(d-1, spec.K-1)
		}
	case KindKTriangles:
		if spec.EdgePrivacy {
			// The removed edge's own term, plus up to 2(dmax−1) adjacent
			// shared edges losing one common neighbor each.
			cap = subgraph.Binomial(d, spec.K) + 2*(df-1)*subgraph.Binomial(d-1, spec.K-1)
		} else {
			// Up to dmax incident shared edges vanish outright; up to
			// C(dmax,2) edges between the node's neighbors lose one common
			// neighbor.
			cap = df*subgraph.Binomial(d, spec.K) + subgraph.Binomial(d, 2)*subgraph.Binomial(d-1, spec.K-1)
		}
	case KindPattern:
		// Occurrences through a fixed node embed along a search tree with
		// ≤ dmax choices per remaining pattern node, from any of the K
		// roots; through a fixed edge, from any oriented pattern-edge image.
		k := float64(spec.PatternNodes)
		if spec.EdgePrivacy {
			cap = 2 * float64(len(spec.PatternEdges)) * math.Pow(df, math.Max(k-2, 0))
		} else {
			cap = k * math.Pow(df, k-1)
		}
	default:
		return 0, specErrorf("mode %q does not apply to kind %q", ModeSampled, spec.Kind)
	}
	if math.IsNaN(cap) || math.IsInf(cap, 0) {
		return 0, specErrorf("sampled sensitivity cap for kind %q overflows at max degree %d; use exact mode", spec.Kind, d)
	}
	return math.Max(cap, 1), nil
}

// sampledProfile composes the release's Laplace tail bound with the
// estimator's concentration contract — the sampled analogue of the exact
// path's Theorem 1 profile.
func (p *Plan) sampledProfile(epsilon, tail float64) mechanism.AccuracyBound {
	s := p.sampled
	return mechanism.SampledAccuracy(epsilon, s.cap, tail, s.res.Contract.AbsError, 1-s.res.Contract.Confidence)
}

// sampledEpsilonFor inverts sampledProfile. The estimator term is
// ε-independent — spending more budget cannot shrink it — so a target at or
// below it (plus the noise floor at EpsilonForMax) is unachievable and
// fails with an ErrSpec-matching error naming the tightest achievable
// bound, mirroring the exact path's contract.
func (p *Plan) sampledEpsilonFor(targetError, tail float64) (float64, mechanism.AccuracyBound, error) {
	s := p.sampled
	floor := p.sampledProfile(EpsilonForMax, tail)
	if targetError < floor.Error {
		return 0, mechanism.AccuracyBound{}, specErrorf(
			"target error %g is not achievable at any ε in [%g, %g]: the tightest bound attainable is %g (estimator term %g, tail %g)",
			targetError, EpsilonForMin, EpsilonForMax, floor.Error, s.res.Contract.AbsError, tail)
	}
	// Error(ε) = tail·cap/ε + estErr is strictly decreasing in ε: invert in
	// closed form and clamp to the quoted range.
	eps := tail * s.cap / (targetError - s.res.Contract.AbsError)
	if eps < EpsilonForMin || math.IsNaN(eps) {
		eps = EpsilonForMin
	}
	if eps > EpsilonForMax {
		eps = EpsilonForMax
	}
	return eps, p.sampledProfile(eps, tail), nil
}
