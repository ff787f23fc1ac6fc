package lp

import "sync/atomic"

// Package-wide solver counters, updated by every Solve in the process.
// They exist for observability: the serving layer exposes them on its
// /metrics endpoint to make LP load (the dominant compile-time cost of the
// recursive mechanism) visible. Being process-global they aggregate over
// every solver user, not one service instance — fine for counters that
// are only ever read as monotone rates.
var (
	solvesTotal        atomic.Uint64
	pivotsTotal        atomic.Uint64
	interruptsTotal    atomic.Uint64
	warmAttemptsTotal  atomic.Uint64
	warmAppliedTotal   atomic.Uint64
	warmDiscardedTotal atomic.Uint64
)

// Counters is a snapshot of the process-wide solver counters: Solve calls
// started (completed or not), simplex iterations performed (pivots and
// bound flips), and solves aborted by an interrupt hook (see
// Problem.SetInterrupt) — so Interrupts/Solves is the abort rate. The warm
// trio tracks SolveSeeded: attempts with a compatible seed, attempts whose
// certified result was kept, and attempts discarded to the cold path — so
// WarmApplied/WarmAttempts is the warm-start hit rate, the first thing to
// look at when fresh-compile latency regresses.
type Counters struct {
	Solves        uint64 `json:"solves"`
	Pivots        uint64 `json:"pivots"`
	Interrupts    uint64 `json:"interrupts"`
	WarmAttempts  uint64 `json:"warmAttempts"`
	WarmApplied   uint64 `json:"warmApplied"`
	WarmDiscarded uint64 `json:"warmDiscarded"`
}

// ReadCounters snapshots the process-wide solver counters. All values are
// monotone over the process life.
func ReadCounters() Counters {
	return Counters{
		Solves:        solvesTotal.Load(),
		Pivots:        pivotsTotal.Load(),
		Interrupts:    interruptsTotal.Load(),
		WarmAttempts:  warmAttemptsTotal.Load(),
		WarmApplied:   warmAppliedTotal.Load(),
		WarmDiscarded: warmDiscardedTotal.Load(),
	}
}
