package mechanism

import (
	"math"
)

// AccuracyBound evaluates the utility guarantee of Theorem 1: with
// probability at least 1 − e^{−µε₁/β} − e^{−c}, the released answer X̂
// satisfies
//
//	|X̂ − q(D)| ≤ e^{2µ}·Δ*·c/ε₂ + g·⌈ln(Δ*/θ)/β⌉·G_{|P|}
//
// where Δ* = max(θ, e^β·G_{|P|}). The first term is the Laplace noise at the
// inflated scale Δ̂; the second is the clamping loss of X.
type AccuracyBound struct {
	Error       float64 // the (ε,δ)-accuracy ε: the error magnitude bound
	FailureProb float64 // the (ε,δ)-accuracy δ: probability the bound fails
	DeltaStar   float64 // Δ* = max(θ, e^β·G_{|P|}); the sensitivity cap for sampled bounds
	NoiseTerm   float64 // e^{2µ}·Δ*·c/ε₂
	ClampTerm   float64 // g·⌈ln(Δ*/θ)/β⌉·G_{|P|}; zero for sampled bounds
	// SamplerTerm is the estimator's concentration-bound error when the
	// bound describes a sampled release (SampledAccuracy); zero for the
	// exact mechanism, whose only error sources are noise and clamping.
	SamplerTerm float64
}

// TheoreticalAccuracy computes the Theorem 1 bound for the given parameters,
// the bounding-sequence endpoint gLast = G_{|P|}, the bounding factor g
// (2 for the efficient mechanism, 1 for the general one) and the tail
// parameter c > 0.
func TheoreticalAccuracy(p Params, gLast float64, g int, c float64) AccuracyBound {
	if c <= 0 {
		panic("mechanism: tail parameter c must be positive")
	}
	deltaStar := math.Max(p.Theta, math.Exp(p.Beta)*gLast)
	noise := math.Exp(2*p.Mu) * deltaStar * c / p.Epsilon2
	clamp := 0.0
	if deltaStar > p.Theta {
		clamp = float64(g) * math.Ceil(math.Log(deltaStar/p.Theta)/p.Beta) * gLast
	}
	return AccuracyBound{
		Error:       noise + clamp,
		FailureProb: math.Exp(-p.Mu*p.Epsilon1/p.Beta) + math.Exp(-c),
		DeltaStar:   deltaStar,
		NoiseTerm:   noise,
		ClampTerm:   clamp,
	}
}

// TheoreticalAccuracyAt evaluates the Theorem 1 bound under the
// experimental defaults of §6.1 (DefaultParams) at total budget ε. It is
// the ε-parameterized form the serving layer's accuracy telemetry sweeps:
// gLast = G_{|P|} is the only data-dependent input, so once a plan has
// solved it the bound is closed-form arithmetic at any ε.
func TheoreticalAccuracyAt(epsilon float64, nodePrivacy bool, gLast float64, g int, c float64) AccuracyBound {
	return TheoreticalAccuracy(DefaultParams(epsilon, nodePrivacy), gLast, g, c)
}

// SampledAccuracy composes the error bound of an estimator-tier release:
// the cached estimate plus one Laplace draw at scale sensCap/ε. Two
// independent failure sources add — the Laplace tail (P[|Lap(b)| > c·b] =
// e^{−c}) and the estimator's own concentration contract (true count within
// samplerErr of the estimate except with probability samplerFail) — so by a
// union bound, with probability at least 1 − e^{−c} − samplerFail the
// released answer lands within c·sensCap/ε + samplerErr of the true count.
// Unlike Theorem 1 there is no clamp term: nothing is truncated, the only
// error sources are sampling and noise.
func SampledAccuracy(epsilon, sensCap, c, samplerErr, samplerFail float64) AccuracyBound {
	if c <= 0 {
		panic("mechanism: tail parameter c must be positive")
	}
	noise := sensCap * c / epsilon
	return AccuracyBound{
		Error:       noise + samplerErr,
		FailureProb: math.Exp(-c) + samplerFail,
		DeltaStar:   sensCap,
		NoiseTerm:   noise,
		SamplerTerm: samplerErr,
	}
}

// Accuracy computes the Theorem 1 bound for the Core's parameters, reading
// G_{|P|} from its sequences; it needs no Prepare. The bounding factor g
// must match the Sequences implementation (2 for Efficient, 1 for General).
func (c *Core) Accuracy(g int, tail float64) (AccuracyBound, error) {
	gLast, err := c.evalSeq(false, c.seq.NumParticipants())
	if err != nil {
		return AccuracyBound{}, err
	}
	return TheoreticalAccuracy(c.params, gLast, g, tail), nil
}
