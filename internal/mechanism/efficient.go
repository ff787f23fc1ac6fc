package mechanism

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"recmech/internal/boolexpr"
	"recmech/internal/krel"
	"recmech/internal/lp"
	"recmech/internal/relax"
)

// Efficient is the LP-based Sequences implementation of §5 for nonnegative
// linear queries on sensitive K-relations:
//
//	H_i = min_{f ∈ [0,1]^P, |f| = i} Σ_t q(t)·φ_{R(t)}(f)                (Eq. 16)
//	G_i = 2·min_{f ∈ [0,1]^P, |f| = i} max_p Σ_t q(t)·φ_{R(t)}(f)·S(R(t),p)  (Eq. 19)
//
// Each φ_{R(t)} is encoded exactly as LP rows: one variable per internal
// expression node, rows v ≥ Σ children − (n−1) for ∧ and v ≥ child for each
// ∨ child. Because every objective (and z-row) coefficient on the node
// variables is non-negative and the constraints only bound them from below,
// the LP optimum equals the true minimum of the piecewise-linear convex
// objective. G's inner max over p becomes a scalar z with one row per
// participant.
//
// Participants that occur in no annotation cannot affect the objective, so
// their total mass is pooled into a single "free mass" variable — the LP size
// depends on the annotation length L, not on |P| (Theorem 6).
//
// Solved ladder: the ladder of H_i (and of G_i) LPs differs rung to rung
// only in the cardinality right-hand side, so the terminal simplex basis of
// one rung's solve stays dual feasible at its neighbours. Each family keeps,
// for every rung it has solved, the rung's value beside its terminal basis:
// a rung asked again returns its value without building an LP, and a new
// rung seeds lp.SolveSeeded from the nearest solved rung of its own family.
// Efficient is the only place solved ladder state lives: Solved reads it,
// Solves counts the solves behind it, and CarryValues hands it to the next
// generation of an unchanged workload.
//
// Concurrency: after construction (and after SetInterrupt, if used) the LP
// encoding is immutable — every solve builds a fresh lp.Problem from
// read-only state — so any number of goroutines may call H and G
// simultaneously. This is what lets a Core fanout and concurrent releases
// of one plan run independent ladder solves in parallel. The one shared
// mutable piece is each family's rung cache, guarded by a read-write lock
// that no solve holds; callers asking for the same unsolved rung wait for
// one solve instead of repeating it. Solve order changes which seed a solve
// starts from, hence pivot counts (which therefore vary with parallelism),
// but never a value: lp.SolveSeeded's certified-or-discard contract makes
// every solve of a rung bit-identical to a cold one, so a stored value is
// the value any later solve would return.
type Efficient struct {
	nP     int
	tuples []krel.Annotated

	used     []boolexpr.Var             // occurring participants, ascending
	usedIdx  map[boolexpr.Var]int       // participant -> dense index
	sens     []map[boolexpr.Var]float64 // per-tuple φ-sensitivities
	weights  []float64                  // per-tuple q(t), aligned with tuples
	constSum float64                    // Σ q(t) over tuples with constant-True annotation

	interrupt func() error // polled by the LP solver during H/G solves

	hRungs, gRungs rungCache // solved rungs per family; never mixed
}

// rung is one ladder rung: its value and its solve's terminal basis (nil
// when the solver reported none), or, while solving is set, a placeholder
// for a solve under way.
type rung struct {
	v       float64
	basis   *lp.Basis
	solving bool
}

// rungCache is one ladder family's solved state. The Δ/X searches probe in
// jumps and the dual simplex's pivot count grows with the right-hand-side
// gap, so a new rung seeds from the nearest solved rung rather than the most
// recent one.
type rungCache struct {
	mu     sync.RWMutex
	ended  sync.Cond // broadcast when a solve ends; its L is &mu
	rungs  map[int]rung
	solves atomic.Uint64 // rungs this cache solved (carried ones excluded)
}

// value returns rung i's stored value.
func (c *rungCache) value(i int) (float64, bool) {
	c.mu.RLock()
	r, ok := c.rungs[i]
	c.mu.RUnlock()
	return r.v, ok && !r.solving
}

// nearest returns the basis of the solved rung nearest to i (ties to the
// lower rung), or nil when none is retained; c.mu must be held. The
// (distance, rung) comparison totally orders candidates, so Go's randomized
// map order cannot change the answer; the map holds a few dozen entries at
// most, so a scan beats keeping a sorted index.
func (c *rungCache) nearest(i int) *lp.Basis {
	var best *lp.Basis
	bestDist, bestRung := 0, 0
	for k, r := range c.rungs {
		if r.basis == nil {
			continue
		}
		d := k - i
		if d < 0 {
			d = -d
		}
		if best == nil || d < bestDist || (d == bestDist && k < bestRung) {
			best, bestDist, bestRung = r.basis, d, k
		}
	}
	return best
}

// get returns rung i, calling solve with the nearest solved rung's basis
// when no caller has solved it yet. A rung is stored only once its solve
// succeeds; callers that find the rung being solved wait for that solve,
// and solve it themselves if it fails.
func (c *rungCache) get(i int, solve func(seed *lp.Basis) (rung, SolveInfo, error)) (float64, SolveInfo, error) {
	c.mu.Lock()
	for {
		r, ok := c.rungs[i]
		if !ok {
			break
		}
		if !r.solving {
			c.mu.Unlock()
			return r.v, SolveInfo{}, nil
		}
		if c.ended.L == nil {
			c.ended.L = &c.mu
		}
		c.ended.Wait()
	}
	if c.rungs == nil {
		c.rungs = make(map[int]rung)
	}
	c.rungs[i] = rung{solving: true}
	seed := c.nearest(i)
	c.mu.Unlock()
	// However solve ends, a panic included, the waiters are released.
	defer func() {
		c.mu.Lock()
		if c.rungs[i].solving {
			delete(c.rungs, i)
		}
		c.mu.Unlock()
		c.ended.Broadcast()
	}()

	r, info, err := solve(seed)
	if err == nil {
		c.mu.Lock()
		c.rungs[i] = r
		c.mu.Unlock()
		c.solves.Add(1)
	}
	return r.v, info, err
}

// carry copies every solved rung of from into c and returns how many it
// copied.
func (c *rungCache) carry(from *rungCache) int {
	from.mu.RLock()
	defer from.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rungs == nil {
		c.rungs = make(map[int]rung, len(from.rungs))
	}
	n := 0
	for i, r := range from.rungs {
		if !r.solving {
			c.rungs[i] = r
			n++
		}
	}
	return n
}

// SetInterrupt installs a cooperative cancellation hook polled by every
// subsequent H/G LP solve (see lp.Problem.SetInterrupt). Set it once,
// before the sequences are shared across goroutines (it is the only
// setting that may change after construction); fn itself must be safe for
// concurrent calls. A serving layer uses this to abort solves no live
// request is waiting for.
func (e *Efficient) SetInterrupt(fn func() error) { e.interrupt = fn }

// NewEfficient builds the LP-backed sequences for a flattened relation. The
// annotation list is the output of (*krel.Sensitive).Annotated; nP is |P|
// (which may exceed the number of occurring variables).
func NewEfficient(nP int, tuples []krel.Annotated) (*Efficient, error) {
	if nP < 0 {
		return nil, fmt.Errorf("mechanism: negative participant count %d", nP)
	}
	e := &Efficient{nP: nP, usedIdx: make(map[boolexpr.Var]int)}
	seen := make(map[boolexpr.Var]struct{})
	for _, t := range tuples {
		if t.Weight < 0 {
			return nil, fmt.Errorf("mechanism: negative tuple weight %v", t.Weight)
		}
		if t.Weight == 0 || t.Ann.Op() == boolexpr.OpFalse {
			continue // contributes nothing to any H_i or G_i
		}
		if t.Ann.Op() == boolexpr.OpTrue {
			e.constSum += t.Weight
			continue
		}
		for _, v := range t.Ann.Vars(nil) {
			if int(v) >= nP {
				return nil, fmt.Errorf("mechanism: annotation variable v%d outside universe of %d participants", v, nP)
			}
			seen[v] = struct{}{}
		}
		e.tuples = append(e.tuples, t)
		e.weights = append(e.weights, t.Weight)
		e.sens = append(e.sens, relax.Sensitivities(t.Ann))
	}
	for v := range seen {
		e.used = append(e.used, v)
	}
	sortVars(e.used)
	for i, v := range e.used {
		e.usedIdx[v] = i
	}
	return e, nil
}

// NewEfficientFromSensitive is the common entry point: flatten s under q.
func NewEfficientFromSensitive(s *krel.Sensitive, q krel.LinearQuery) (*Efficient, error) {
	return NewEfficient(s.NumParticipants(), s.Annotated(q))
}

// NumParticipants implements Sequences.
func (e *Efficient) NumParticipants() int { return e.nP }

// NumTuples returns the number of annotated tuples in the flattened
// K-relation — the L that Theorem 6 sizes the LPs by.
func (e *Efficient) NumTuples() int { return len(e.tuples) }

// SolveInfo describes one H/G evaluation for observability: the size of
// the LP built, the simplex pivots it cost, and what became of its
// warm-start seed. The zero value means the entry needed no LP of this
// call: it was already solved, or it short-circuits (empty relation, or
// G_0). Nothing here derives from tuple *values*, only from the workload
// shape.
type SolveInfo struct {
	Pivots int            // simplex pivots across both phases
	Rows   int            // LP constraint rows
	Cols   int            // LP variables
	Warm   lp.WarmOutcome // seed disposition (lp.WarmNone without one)
}

// lpBuild constructs the shared part of the H/G LPs: participant variables,
// the free-mass pool, the expression-node rows, and the cardinality row
// Σ f = i. It returns the problem and the per-tuple root terms.
type rootTerm struct {
	col  int     // -1 if the root folded to a constant
	cons float64 // constant offset (value = x_col + cons, clipped ≥ 0 by rows)
}

func (e *Efficient) lpBuild(i int) (*lp.Problem, []rootTerm, []int) {
	p := lp.NewProblem()
	if e.interrupt != nil {
		p.SetInterrupt(e.interrupt)
	}
	fCols := make([]int, len(e.used))
	for j := range e.used {
		fCols[j] = p.AddVar(0, 0, 1)
	}
	// Mass assigned to non-occurring participants.
	freeCap := float64(e.nP - len(e.used))
	freeCol := -1
	if freeCap > 0 {
		freeCol = p.AddVar(0, 0, freeCap)
	}
	roots := make([]rootTerm, len(e.tuples))
	for ti, t := range e.tuples {
		roots[ti] = e.encode(p, fCols, t.Ann)
	}
	// Cardinality row: Σ_used f + free = i.
	terms := make([]lp.Term, 0, len(fCols)+1)
	for _, c := range fCols {
		terms = append(terms, lp.Term{Col: c, Coef: 1})
	}
	if freeCol >= 0 {
		terms = append(terms, lp.Term{Col: freeCol, Coef: 1})
	}
	p.AddConstraint(terms, lp.EQ, float64(i))
	return p, roots, fCols
}

// encode lowers φ of an expression into LP rows, returning the root term.
func (e *Efficient) encode(p *lp.Problem, fCols []int, ex *boolexpr.Expr) rootTerm {
	switch ex.Op() {
	case boolexpr.OpFalse:
		return rootTerm{col: -1, cons: 0}
	case boolexpr.OpTrue:
		return rootTerm{col: -1, cons: 1}
	case boolexpr.OpVar:
		return rootTerm{col: fCols[e.usedIdx[ex.Variable()]], cons: 0}
	case boolexpr.OpAnd:
		kids := ex.Children()
		v := p.AddVar(0, 0, math.Inf(1))
		// v ≥ Σ child values − (n−1): v − Σ childcols ≥ Σ childcons − (n−1).
		terms := []lp.Term{{Col: v, Coef: 1}}
		rhs := -float64(len(kids) - 1)
		for _, k := range kids {
			kt := e.encode(p, fCols, k)
			if kt.col >= 0 {
				terms = append(terms, lp.Term{Col: kt.col, Coef: -1})
			}
			rhs += kt.cons
		}
		p.AddConstraint(terms, lp.GE, rhs)
		return rootTerm{col: v, cons: 0}
	case boolexpr.OpOr:
		v := p.AddVar(0, 0, math.Inf(1))
		for _, k := range ex.Children() {
			kt := e.encode(p, fCols, k)
			if kt.col >= 0 {
				p.AddConstraint([]lp.Term{{Col: v, Coef: 1}, {Col: kt.col, Coef: -1}}, lp.GE, kt.cons)
			} else if kt.cons > 0 {
				p.AddConstraint([]lp.Term{{Col: v, Coef: 1}}, lp.GE, kt.cons)
			}
		}
		return rootTerm{col: v, cons: 0}
	}
	panic("mechanism: invalid op")
}

// H implements Eq. 16 by one LP solve per rung.
func (e *Efficient) H(i int) (float64, error) {
	v, _, err := e.HInfo(i)
	return v, err
}

// HInfo is H plus the solve's SolveInfo, for per-solve tracing.
func (e *Efficient) HInfo(i int) (float64, SolveInfo, error) {
	if i < 0 || i > e.nP {
		return 0, SolveInfo{}, fmt.Errorf("mechanism: H index %d outside [0,%d]", i, e.nP)
	}
	if v, ok := e.Solved(true, i); ok {
		return v, SolveInfo{}, nil
	}
	return e.hRungs.get(i, func(seed *lp.Basis) (rung, SolveInfo, error) {
		p, roots, _ := e.lpBuild(i)
		offset := e.constSum
		// Accumulate: distinct tuples may share a root column when their
		// annotations are the same single variable.
		costs := make(map[int]float64)
		for ti, r := range roots {
			if r.col >= 0 {
				costs[r.col] += e.weights[ti]
			}
			offset += e.weights[ti] * r.cons
		}
		for col, c := range costs {
			p.SetCost(col, c)
		}
		res, info, err := solveSeeded(p, seed)
		if err != nil {
			return rung{}, info, err
		}
		if res.Status != lp.Optimal {
			return rung{}, info, fmt.Errorf("mechanism: H_%d LP is %v", i, res.Status)
		}
		v := res.Objective + offset
		if v < 0 {
			v = 0
		}
		return rung{v: v, basis: res.Basis}, info, nil
	})
}

// G implements Eq. 19 by one LP solve per rung (min z over the
// per-participant rows, doubled).
func (e *Efficient) G(i int) (float64, error) {
	v, _, err := e.GInfo(i)
	return v, err
}

// GInfo is G plus the solve's SolveInfo, for per-solve tracing. G solves
// seed only from G bases: the G LP carries the z variable and the
// per-participant rows, so an H basis would never fit it.
func (e *Efficient) GInfo(i int) (float64, SolveInfo, error) {
	if i < 0 || i > e.nP {
		return 0, SolveInfo{}, fmt.Errorf("mechanism: G index %d outside [0,%d]", i, e.nP)
	}
	if v, ok := e.Solved(false, i); ok {
		return v, SolveInfo{}, nil
	}
	return e.gRungs.get(i, func(seed *lp.Basis) (rung, SolveInfo, error) {
		p, roots, _ := e.lpBuild(i)
		z := p.AddVar(1, 0, math.Inf(1))
		// One row per occurring participant: z ≥ Σ_t q(t)·S(R(t),p)·φ_t.
		for _, pv := range e.used {
			terms := []lp.Term{{Col: z, Coef: 1}}
			rhs := 0.0
			for ti, r := range roots {
				s := e.sens[ti][pv]
				if s == 0 {
					continue
				}
				coef := e.weights[ti] * s
				if r.col >= 0 {
					terms = append(terms, lp.Term{Col: r.col, Coef: -coef})
				}
				rhs += coef * r.cons
			}
			if len(terms) > 1 || rhs > 0 {
				p.AddConstraint(terms, lp.GE, rhs)
			}
		}
		res, info, err := solveSeeded(p, seed)
		if err != nil {
			return rung{}, info, err
		}
		if res.Status != lp.Optimal {
			return rung{}, info, fmt.Errorf("mechanism: G_%d LP is %v", i, res.Status)
		}
		v := 2 * res.Objective
		if v < 0 {
			v = 0
		}
		return rung{v: v, basis: res.Basis}, info, nil
	})
}

// solveSeeded solves p from seed and describes the solve.
func solveSeeded(p *lp.Problem, seed *lp.Basis) (lp.Result, SolveInfo, error) {
	res, err := p.SolveSeeded(seed)
	return res, SolveInfo{Pivots: res.Pivots, Rows: p.NumRows(), Cols: p.NumVars(), Warm: res.Warm}, err
}

// Solved implements Lookup: it returns H_i (isH) or G_i when e holds it
// already — solved or carried earlier, or short-circuiting without an LP
// (empty relation, or G_0) — and false otherwise. It never solves and
// never waits for a solve.
func (e *Efficient) Solved(isH bool, i int) (float64, bool) {
	if i < 0 || i > e.nP {
		return 0, false
	}
	if isH {
		if len(e.tuples) == 0 {
			return e.constSum, true
		}
		return e.hRungs.value(i)
	}
	if len(e.tuples) == 0 || i == 0 {
		return 0, true
	}
	return e.gRungs.value(i)
}

// Solves reports how many H and G rungs e has solved, one LP solve each.
// Carried and short-circuited rungs are not counted.
func (e *Efficient) Solves() (h, g uint64) {
	return e.hRungs.solves.Load(), e.gRungs.solves.Load()
}

// CarryValues gives e every solved rung of from — each value with its
// basis — and returns how many it carried. The caller must have
// proven that both encode the same computation (the same tuples over the
// same participants), so every carried value is the one e would solve to,
// and must call it before e is shared.
func (e *Efficient) CarryValues(from *Efficient) int {
	return e.hRungs.carry(&from.hRungs) + e.gRungs.carry(&from.gRungs)
}

func sortVars(vs []boolexpr.Var) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// RunEfficient is the one-call convenience API: build the sequences, prepare
// Δ, and draw one private release.
func RunEfficient(s *krel.Sensitive, q krel.LinearQuery, params Params, rng *rand.Rand) (float64, error) {
	seq, err := NewEfficientFromSensitive(s, q)
	if err != nil {
		return 0, err
	}
	core, err := NewCore(seq, params)
	if err != nil {
		return 0, err
	}
	return core.Release(rng)
}

// BuildHProblem exposes the H_i linear program of a sensitive relation for
// inspection and benchmarking (used by the LP ablation experiment). The
// returned problem minimizes Σ_t q(t)·φ_{R(t)}(f) subject to |f| = i.
func BuildHProblem(s *krel.Sensitive, q krel.LinearQuery, i int) (*lp.Problem, error) {
	e, err := NewEfficientFromSensitive(s, q)
	if err != nil {
		return nil, err
	}
	if i < 0 || i > e.nP {
		return nil, fmt.Errorf("mechanism: H index %d outside [0,%d]", i, e.nP)
	}
	p, roots, _ := e.lpBuild(i)
	costs := make(map[int]float64)
	for ti, r := range roots {
		if r.col >= 0 {
			costs[r.col] += e.weights[ti]
		}
	}
	for col, c := range costs {
		p.SetCost(col, c)
	}
	return p, nil
}
