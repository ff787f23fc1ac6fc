package plan

import (
	"context"
	"math"
	"math/rand"

	"recmech/internal/mechanism"
)

// efficientG is the bounding factor g of Theorem 1 for the efficient
// mechanism (§5), which is what every Plan compiles to: G_i bounds the
// query's growth within a factor of 2 (the general mechanism's factor is 1
// but it is exponential-time, so plans never use it).
const efficientG = 2

// DefaultTail is the tail parameter c used when a caller does not choose
// one: the Theorem 1 bound then holds with probability at least
// 1 − e^{−µε₁/β} − e^{−3} (under DefaultParams, e^{−µε₁/β} = e^{−2.5µ} is
// ε-independent: ≈ 0.29 for edge privacy, ≈ 0.08 for node privacy).
const DefaultTail = 3.0

// Bounds of the ε search space EpsilonFor scans. Below EpsilonForMin the
// noise term alone exceeds any realistic target; above EpsilonForMax a
// single release would dwarf any whole-dataset budget this service grants.
const (
	EpsilonForMin = 1e-6
	EpsilonForMax = 64.0
)

// ErrorProfile evaluates the Theorem 1 utility bound for a release at
// epsilon with tail parameter tail (> 0): with probability at least
// 1 − FailureProb, a release drawn from this plan lands within Error of
// the true answer. The only data-dependent input is G_{|P|}, one LP solve
// the plan's Efficient keeps from the first time any profile or release
// needs it — so after that first call this is allocation-free closed-form
// arithmetic at any ε.
//
// The bound is data-dependent (G_{|P|} derives from the sensitive input)
// and is NOT differentially private: serving layers must treat a profile
// like Δ or the true answer and control who sees it (see the service
// layer's ExposeAccuracy gate and DESIGN.md).
func (p *Plan) ErrorProfile(epsilon, tail float64) (mechanism.AccuracyBound, error) {
	if math.IsNaN(epsilon) || math.IsInf(epsilon, 0) || epsilon <= 0 {
		return mechanism.AccuracyBound{}, specErrorf("profile ε must be positive and finite, got %g", epsilon)
	}
	if math.IsNaN(tail) || math.IsInf(tail, 0) || tail <= 0 {
		return mechanism.AccuracyBound{}, specErrorf("tail parameter must be positive and finite, got %g", tail)
	}
	if p.sampled != nil {
		// The sampled analogue: Laplace tail at the sensitivity cap plus
		// the estimator's own concentration contract (see SampledAccuracy).
		return p.sampledProfile(epsilon, tail), nil
	}
	gLast, err := p.eff.G(p.nP)
	if err != nil {
		return mechanism.AccuracyBound{}, err
	}
	return mechanism.TheoreticalAccuracyAt(epsilon, p.nodeLike, gLast, efficientG, tail), nil
}

// EpsilonFor inverts ErrorProfile: the smallest ε in
// [EpsilonForMin, EpsilonForMax] whose Theorem 1 bound is at most
// targetError, plus the bound actually achieved there. An unachievable
// target (smaller than the bound's minimum over the whole range — the
// bound is U-shaped in ε: the noise term e^{β}/ε₂ stops shrinking once β
// grows faster than ε₂) fails with an ErrSpec-matching error naming the
// tightest achievable bound.
//
// The bound is not globally monotone in ε, so the search is a geometric
// grid scan for the first ε at or under the target followed by a bisection
// of the bracketing interval — on that left flank the bound is strictly
// decreasing, which is what makes the bisection sound and the result the
// minimal spend.
func (p *Plan) EpsilonFor(targetError, tail float64) (float64, mechanism.AccuracyBound, error) {
	if math.IsNaN(targetError) || math.IsInf(targetError, 0) || targetError <= 0 {
		return 0, mechanism.AccuracyBound{}, specErrorf("target error must be positive and finite, got %g", targetError)
	}
	if math.IsNaN(tail) || math.IsInf(tail, 0) || tail <= 0 {
		return 0, mechanism.AccuracyBound{}, specErrorf("tail parameter must be positive and finite, got %g", tail)
	}
	if p.sampled != nil {
		return p.sampledEpsilonFor(targetError, tail)
	}
	gLast, err := p.eff.G(p.nP)
	if err != nil {
		return 0, mechanism.AccuracyBound{}, err
	}
	bound := func(eps float64) mechanism.AccuracyBound {
		return mechanism.TheoreticalAccuracyAt(eps, p.nodeLike, gLast, efficientG, tail)
	}
	if b := bound(EpsilonForMin); b.Error <= targetError {
		// The target is loose enough that even the smallest ε we quote
		// meets it; anything below would just be noise-free by rounding.
		return EpsilonForMin, b, nil
	}
	// Geometric grid, ~3.8% per step across eight decades: fine enough that
	// each cell of the left (decreasing) flank is monotone, cheap enough
	// (a few hundred closed-form evaluations) to be free next to anything
	// else the serving layer does.
	const steps = 512
	ratio := math.Pow(EpsilonForMax/EpsilonForMin, 1.0/float64(steps-1))
	lo, best := EpsilonForMin, math.Inf(1)
	for i := 1; i < steps; i++ {
		eps := EpsilonForMin * math.Pow(ratio, float64(i))
		b := bound(eps)
		if b.Error <= targetError {
			// bound(lo) > target ≥ bound(eps): bisect the bracket down to
			// the crossing point. 64 halvings take the interval to machine
			// precision.
			hi := eps
			for j := 0; j < 64; j++ {
				mid := (lo + hi) / 2
				if bound(mid).Error <= targetError {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi, bound(hi), nil
		}
		if b.Error < best {
			best = b.Error
		}
		lo = eps
	}
	return 0, mechanism.AccuracyBound{}, specErrorf(
		"target error %g is not achievable at any ε in [%g, %g]: the tightest bound attainable is %g (tail %g)",
		targetError, EpsilonForMin, EpsilonForMax, best, tail)
}

// ReleaseObservation pairs one released value with its accuracy telemetry:
// the realized magnitude of the final Laplace draw, and the Theorem 1
// bound predicted for this ε at DefaultTail. Value is ε-DP and may leave
// the trust boundary; NoiseMagnitude and Predicted are data-dependent
// diagnostics for operator surfaces only.
type ReleaseObservation struct {
	Value          float64
	NoiseMagnitude float64                 // |final Laplace draw| actually added to X
	Predicted      mechanism.AccuracyBound // Theorem 1 bound at this ε, tail DefaultTail
	PredictedOK    bool                    // false when the bound could not be computed
}

// ReleaseObserved is Release plus accuracy telemetry. The released value —
// and the RNG stream producing it — is bit-identical to Release's: the
// predicted bound is computed first from deterministic state (consuming no
// randomness), then the release runs unchanged, and the noise magnitude is
// read off the draw the release was already making.
func (p *Plan) ReleaseObserved(ctx context.Context, epsilon float64, rng *rand.Rand) (ReleaseObservation, error) {
	return p.release(ctx, epsilon, rng, true)
}
