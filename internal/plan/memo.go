package plan

import (
	"sync"
	"sync/atomic"

	"recmech/internal/mechanism"
	"recmech/internal/trace"
)

// memoSeq memoizes a Sequences implementation behind a read-write lock so
// every Core built over one plan — one per release — shares the same H/G
// values instead of re-solving LPs. mechanism.Core has its own per-instance
// memo, but a Core lives for exactly one release; this is the cross-release,
// cross-goroutine layer.
//
// A miss computes outside the lock: two goroutines racing on the same index
// may both solve the LP, but the solver is deterministic so either result
// is the same value, and not holding the lock across a solve keeps readers
// of already-memoized entries from stalling behind a miss.
type memoSeq struct {
	inner mechanism.Sequences
	info  solveInfoSeq // inner's per-solve variant, when it offers one

	mu sync.RWMutex
	h  map[int]float64
	g  map[int]float64

	hSolves atomic.Uint64 // LP solves performed (misses), for Plan.Solves
	gSolves atomic.Uint64
}

// solveInfoSeq is the optional Sequences extension the traced path prefers:
// the same values as H/G plus per-solve cost (mechanism.Efficient provides
// it). Memo hits never reach it, so the info is recorded exactly by the
// access that paid for the solve.
type solveInfoSeq interface {
	HInfo(i int) (float64, mechanism.SolveInfo, error)
	GInfo(i int) (float64, mechanism.SolveInfo, error)
}

func newMemoSeq(inner mechanism.Sequences) *memoSeq {
	m := &memoSeq{inner: inner, h: make(map[int]float64), g: make(map[int]float64)}
	m.info, _ = inner.(solveInfoSeq)
	return m
}

func (m *memoSeq) NumParticipants() int { return m.inner.NumParticipants() }

func (m *memoSeq) H(i int) (float64, error) { return m.hGet(i, nil) }

func (m *memoSeq) G(i int) (float64, error) { return m.gGet(i, nil) }

// hGet is H with span attribution: a memo miss records an lp.solve span
// (rung index, pivots, LP size) under the phase span cur points at. Hits
// touch neither the clock nor the cursor beyond one atomic load.
func (m *memoSeq) hGet(i int, cur *spanCursor) (float64, error) {
	m.mu.RLock()
	v, ok := m.h[i]
	m.mu.RUnlock()
	if ok {
		return v, nil
	}
	v, err := m.solve(i, cur, "h")
	if err != nil {
		return 0, err
	}
	m.hSolves.Add(1)
	m.mu.Lock()
	m.h[i] = v
	m.mu.Unlock()
	return v, nil
}

// gGet is G with span attribution; see hGet.
func (m *memoSeq) gGet(i int, cur *spanCursor) (float64, error) {
	m.mu.RLock()
	v, ok := m.g[i]
	m.mu.RUnlock()
	if ok {
		return v, nil
	}
	v, err := m.solve(i, cur, "g")
	if err != nil {
		return 0, err
	}
	m.gSolves.Add(1)
	m.mu.Lock()
	m.g[i] = v
	m.mu.Unlock()
	return v, nil
}

// solve runs one H or G evaluation, recording an lp.solve span (with the
// solve's warm-start disposition) when the release is traced and inner
// reports per-solve info.
func (m *memoSeq) solve(i int, cur *spanCursor, seq string) (float64, error) {
	sp := trace.StartChild(cur.get(), "lp.solve")
	if sp != nil && m.info != nil {
		var (
			v    float64
			info mechanism.SolveInfo
			err  error
		)
		if seq == "h" {
			v, info, err = m.info.HInfo(i)
		} else {
			v, info, err = m.info.GInfo(i)
		}
		spanInfo(sp, seq, i, info, err)
		return v, err
	}
	var v float64
	var err error
	if seq == "h" {
		v, err = m.inner.H(i)
	} else {
		v, err = m.inner.G(i)
	}
	sp.End() // sp can be non-nil here (info-less inner); still close it
	return v, err
}

// spanInfo stamps and closes an lp.solve span with the solve's cost and
// warm-start disposition.
func spanInfo(sp *trace.Span, seq string, i int, info mechanism.SolveInfo, err error) {
	sp.Str("seq", seq).Int("i", int64(i)).
		Int("pivots", int64(info.Pivots)).Int("rows", int64(info.Rows)).Int("cols", int64(info.Cols)).
		Str("warm", info.Warm.String())
	if err != nil {
		sp.Str("error", err.Error())
	}
	sp.End()
}

func (m *memoSeq) solves() (h, g uint64) {
	return m.hSolves.Load(), m.gSolves.Load()
}

// inherit copies the predecessor generation's solved H/G values into this
// memo, so the new generation's first release skips those solves entirely.
// Callers must have proven the two generations are the same computation
// (same tuples, same participant count); any other advanced plan starts
// from an empty memo and re-solves its ladder.
func (m *memoSeq) inherit(from *memoSeq) int {
	from.mu.RLock()
	defer from.mu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, v := range from.h {
		m.h[i] = v
	}
	for i, v := range from.g {
		m.g[i] = v
	}
	return len(from.h) + len(from.g)
}
