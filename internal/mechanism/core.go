package mechanism

import (
	"fmt"
	"math"
	"math/rand"

	"recmech/internal/noise"
)

// Sequences exposes the recursive sequence H and its g-bounding sequence G
// for one sensitive database. Implementations must satisfy Definition 17/18:
// H and G are recursive sequences with H_{|P|} equal to the true answer, and
// H_j ≤ H_i + (|P|−i)·G_k for k = |P|−⌊(|P|−j)/g⌋.
//
// Both accessors must be deterministic (they are consulted by the noise-free
// part of the mechanism) and may be expensive. Core keeps no copy of what
// they return: an implementation that holds computed entries offers them
// through Lookup, as Efficient does.
type Sequences interface {
	// NumParticipants returns |P|.
	NumParticipants() int
	// H returns H_i for 0 ≤ i ≤ |P|.
	H(i int) (float64, error)
	// G returns G_i for 0 ≤ i ≤ |P|.
	G(i int) (float64, error)
}

// Lookup is the optional Sequences extension Core consults before it
// evaluates a probe: Solved returns H_i (isH) or G_i when the sequences
// already hold it, computing nothing, and false otherwise. Core evaluates
// (and fans out) only the probes Solved does not fill.
type Lookup interface {
	Solved(isH bool, i int) (float64, bool)
}

// Fanout executes n independent tasks, possibly concurrently, returning
// after all have finished; a non-nil error must be the error of the
// lowest-index failing task (see pool.Pool.Map, whose Fanout adapter is the
// production implementation). Core uses it to evaluate a wave of ladder
// probes — independent H_i/G_i LP solves — in parallel. A nil Fanout means
// waves are evaluated serially in index order.
type Fanout func(n int, task func(i int) error) error

// ladderWave is the number of probe points evaluated per round of the Δ
// search (Prepare) and the X minimization (XGiven). It is a fixed
// constant, deliberately independent of how many workers execute a wave,
// and both searches follow one probe schedule whether or not a fanout is
// installed: their exactness arguments lean on monotonicity/convexity of
// *computed* sequence values, which the LP solver only approximately
// preserves, so a mode-dependent schedule could let a sub-tolerance
// inversion steer the two modes to different answers. One schedule
// everywhere is what makes every output bit-identical across every
// -compile-parallelism; parallelism only ever changes wall-clock overlap.
const ladderWave = 4

// Core runs the recursive mechanism framework of §4.1 over any Sequences
// implementation. A Core is prepared once per database (computing the
// deterministic Δ) and can then produce any number of independent releases —
// each release costs the same privacy budget; the sharing only saves
// computation in experiments that study the error distribution. Core knows
// nothing about how H and G are computed and keeps none of their values:
// holding solved entries (Efficient's per-rung values and warm-start bases)
// is the Sequences implementation's business, and Core reads them through
// Lookup when seq offers it.
//
// A Core itself is single-goroutine (one Core per release); with SetFanout
// it fans each wave of independent sequence probes across a compute pool,
// which requires seq's accessors to be safe for concurrent calls
// (Efficient's are).
type Core struct {
	seq    Sequences
	lookup Lookup // seq's Lookup, or nil
	params Params
	fan    Fanout

	delta      float64
	deltaIndex int // the i with Δ = e^{iβ}θ
	prepared   bool
}

// NewCore wraps seq with the given parameters.
func NewCore(seq Sequences, params Params) (*Core, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	lookup, _ := seq.(Lookup)
	return &Core{seq: seq, lookup: lookup, params: params}, nil
}

// SetFanout installs the wave executor used by Prepare and XGiven. Set it
// before the first Prepare/Release; a nil fanout (the default) evaluates
// waves serially. The sequences must tolerate concurrent H/G calls once a
// fanout is installed.
func (c *Core) SetFanout(f Fanout) { c.fan = f }

// waveMax bounds how many indices one probe wave can carry: the XGiven
// endgame scans a bracket of up to ladderWave+2 candidates.
const waveMax = ladderWave + 2

// probeWave evaluates H (isH) or G at every index in idxs (≤ waveMax of
// them), filling vals[k] for idxs[k]. Probes the sequences already hold are
// filled through Lookup; only the rest are evaluated — fanned out, or
// serially in index order without a fanout, on a zero-allocation path — so
// a release whose ladder is already solved never hands a probe to the
// compute pool. Which values come out depends only on idxs, never on the
// fanout, keeping parallel and sequential execution bit-identical.
func (c *Core) probeWave(isH bool, idxs []int, vals []float64) error {
	var missBuf [waveMax]int
	miss := missBuf[:0]
	for k, i := range idxs {
		if c.lookup != nil {
			if v, ok := c.lookup.Solved(isH, i); ok {
				vals[k] = v
				continue
			}
		}
		miss = append(miss, k)
	}
	if len(miss) == 0 {
		return nil
	}
	if c.fan == nil || len(miss) == 1 {
		for _, k := range miss {
			v, err := c.evalSeq(isH, idxs[k])
			if err != nil {
				return err
			}
			vals[k] = v
		}
	} else {
		// Fresh copies keep the caller's stack buffers from escaping into
		// the closure; this is the parallel branch, where a few small
		// allocations are noise next to the LP solves being overlapped.
		missIdx := make([]int, len(miss))
		missVals := make([]float64, len(miss))
		for m, k := range miss {
			missIdx[m] = idxs[k]
		}
		err := c.fan(len(missIdx), func(m int) error {
			v, err := c.evalSeq(isH, missIdx[m])
			if err != nil {
				return err
			}
			missVals[m] = v
			return nil
		})
		if err != nil {
			return err
		}
		for m, k := range miss {
			vals[k] = missVals[m]
		}
	}
	return nil
}

// evalSeq evaluates one sequence entry with the standard error wrapping.
func (c *Core) evalSeq(isH bool, i int) (float64, error) {
	name, eval := "G", c.seq.G
	if isH {
		name, eval = "H", c.seq.H
	}
	v, err := eval(i)
	if err != nil {
		return 0, fmt.Errorf("mechanism: %s_%d: %w", name, i, err)
	}
	return v, nil
}

// waveProbes fills buf with up to ladderWave strictly increasing interior
// points of (lo, hi), splitting the bracket into ladderWave+1 near-equal
// segments, and returns the filled prefix.
func waveProbes(lo, hi int, buf []int) []int {
	d := hi - lo
	probes := buf[:0]
	for k := 1; k <= ladderWave; k++ {
		p := lo + k*d/(ladderWave+1)
		if p <= lo || p >= hi {
			continue
		}
		if len(probes) > 0 && probes[len(probes)-1] == p {
			continue
		}
		probes = append(probes, p)
	}
	return probes
}

// Prepare computes the deterministic Δ of Eq. 11:
//
//	Δ = min{ e^{iβ}θ : G_{|P|−i} ≤ e^{iβ}θ }.
//
// The predicate is monotone in i — G_{|P|−i} is non-increasing in i while
// e^{iβ}θ increases — so the smallest feasible i is found by a bracketing
// search (§5.3 uses a plain binary search; this one probes a wave of
// ladderWave evenly spaced points per round, each an independent G LP
// solve, so a fanout overlaps them on the compute pool). The schedule is
// the same with and without a fanout: under *exact* monotonicity any
// schedule finds the same index, but the LP solver's G values carry
// floating-point error, and a sub-tolerance inversion near the threshold
// could steer differently shaped searches to different indices — so, as
// in XGiven, one pinned schedule is what makes Δ bit-identical across
// every -compile-parallelism. i = |P| is always feasible because G_0 = 0.
func (c *Core) Prepare() error {
	if c.prepared {
		return nil
	}
	nP := c.seq.NumParticipants()
	feasible := func(i int, g float64) bool {
		return g <= math.Exp(float64(i)*c.params.Beta)*c.params.Theta
	}
	var probeBuf, gIdx [waveMax]int
	var gs [waveMax]float64
	lo, hi := 0, nP // invariant: hi is feasible, the answer is in [lo, hi]
	for lo < hi {
		var probes []int
		if hi-lo <= ladderWave {
			// Endgame: probe every remaining candidate below hi at once.
			probes = probeBuf[:0]
			for i := lo; i < hi; i++ {
				probes = append(probes, i)
			}
		} else {
			probes = waveProbes(lo, hi, probeBuf[:])
		}
		for k, p := range probes {
			gIdx[k] = nP - p
		}
		if err := c.probeWave(false, gIdx[:len(probes)], gs[:len(probes)]); err != nil {
			return err
		}
		// Monotonicity: the infeasible probes are a prefix. The first
		// feasible probe becomes the new hi; everything at or below the
		// last infeasible probe is ruled out.
		for k, p := range probes {
			if feasible(p, gs[k]) {
				hi = p
				break
			}
			lo = p + 1
		}
	}
	c.deltaIndex = hi
	c.delta = math.Exp(float64(hi)*c.params.Beta) * c.params.Theta
	c.prepared = true
	return nil
}

// Delta returns the deterministic sensitivity proxy Δ (Prepare must have
// succeeded). Δ is NOT differentially private — only its noisy version
// released through Release is.
func (c *Core) Delta() (float64, error) {
	if err := c.Prepare(); err != nil {
		return 0, err
	}
	return c.delta, nil
}

// DeltaIndex returns the ladder index i with Δ = e^{iβ}θ.
func (c *Core) DeltaIndex() (int, error) {
	if err := c.Prepare(); err != nil {
		return 0, err
	}
	return c.deltaIndex, nil
}

// NoisyDelta draws Δ̂ = e^{µ+Y}·Δ with Y ~ Lap(β/ε₁) (Step 2 of §4.1). Its
// release satisfies ε₁-differential privacy (Lemma 4).
func (c *Core) NoisyDelta(rng *rand.Rand) (float64, error) {
	if err := c.Prepare(); err != nil {
		return 0, err
	}
	y := noise.Laplace(rng, c.params.Beta/c.params.Epsilon1)
	return math.Exp(c.params.Mu+y) * c.delta, nil
}

// XGiven computes X = min_i { H_i + (|P|−i)·Δ̂ } (Eq. 12) for a fixed Δ̂.
// H is convex in i (Lemma 10) and the linear term preserves convexity, so
// the integer minimum is bracketed by multisection: each round evaluates a
// wave of ladderWave evenly spaced interior points — independent H LP
// solves, overlapped on the compute pool when a fanout is set — and narrows
// to the segment pair flanking the smallest probe, which convexity
// guarantees still contains a global minimizer. The final bracket is
// scanned exhaustively, so the returned value is the exact discrete
// minimum, identical for any wave execution order.
func (c *Core) XGiven(deltaHat float64) (float64, error) {
	nP := c.seq.NumParticipants()
	val := func(i int, h float64) float64 {
		return h + float64(nP-i)*deltaHat
	}
	var probeBuf [waveMax]int
	var hs [waveMax]float64
	lo, hi := 0, nP
	// Narrow to a bracket of ≤ 3 candidates. Brackets of width ≥ 3 always
	// get at least two interior probes, so the flank rule below strictly
	// shrinks them; width 2 would stall on its single probe, which is why
	// the loop stops there and hands over to the exhaustive scan.
	for hi-lo > 2 {
		probes := waveProbes(lo, hi, probeBuf[:])
		if err := c.probeWave(true, probes, hs[:len(probes)]); err != nil {
			return 0, err
		}
		best := 0
		for k := 1; k < len(probes); k++ {
			if val(probes[k], hs[k]) < val(probes[best], hs[best]) {
				best = k
			}
		}
		// A minimizer lies between the probes flanking the smallest one
		// (endpoints lo/hi serve as the outer flanks).
		if best > 0 {
			lo = probes[best-1]
		}
		if best < len(probes)-1 {
			hi = probes[best+1]
		}
	}
	// Endgame: evaluate the remaining ≤ 3 candidates (mostly flanks probed
	// already) as one wave and take the minimum.
	idxs := probeBuf[:0]
	for i := lo; i <= hi; i++ {
		idxs = append(idxs, i)
	}
	if err := c.probeWave(true, idxs, hs[:len(idxs)]); err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for k, i := range idxs {
		if v := val(i, hs[k]); v < best {
			best = v
		}
	}
	return best, nil
}

// Release produces one ε₁+ε₂ differentially private answer:
// X̂ = X + Lap(Δ̂/ε₂) with X per Eq. 12 and Δ̂ per Step 2.
func (c *Core) Release(rng *rand.Rand) (float64, error) {
	deltaHat, err := c.NoisyDelta(rng)
	if err != nil {
		return 0, err
	}
	x, err := c.XGiven(deltaHat)
	if err != nil {
		return 0, err
	}
	return x + noise.Laplace(rng, deltaHat/c.params.Epsilon2), nil
}

// TrueAnswer returns H_{|P|}, the exact query answer (not private).
func (c *Core) TrueAnswer() (float64, error) {
	return c.evalSeq(true, c.seq.NumParticipants())
}

// Params returns the configured parameters.
func (c *Core) Params() Params { return c.params }

// NumParticipants returns |P|.
func (c *Core) NumParticipants() int { return c.seq.NumParticipants() }
