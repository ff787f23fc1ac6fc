// Package pool provides the process-wide bounded compute pool behind the
// parallel compile engine: subgraph enumeration shards, the H/G ladder's
// probe waves, and the Δ search all fan their independent pieces of work
// through one Pool, so N concurrent compilations share the machine's cores
// instead of each spawning its own worker set and oversubscribing the box
// N·cores ways.
//
// The design is deliberately not a queue. A fan-out (Map) is executed by
// the calling goroutine — which already owns a legitimate slot of
// concurrency, typically a serving-layer worker — plus however many pool
// workers are free right now, borrowed without blocking. A saturated pool
// therefore degrades to exactly the sequential behaviour (the caller
// computes everything itself), never to a deadlock and never to queue-wait
// latency stacked on top of compute latency. Borrowed workers return their
// token as soon as the fan-out's tasks drain.
//
// Determinism: Map gives every task its index and runs each task exactly
// once, so callers that write results[i] from task i and merge by index
// after Map returns produce output independent of scheduling. Nothing in
// this package introduces ordering nondeterminism — only wall-clock
// overlap.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size set of borrowable workers. The zero value is not
// usable; construct with New. A Pool is safe for concurrent use and is
// meant to be shared process-wide (the serving layer owns one sized by
// -compile-parallelism).
type Pool struct {
	tokens chan struct{}
	size   int

	busy  atomic.Int64 // workers currently borrowed by fan-outs
	tasks atomic.Int64 // tasks currently executing (including callers' own)
	fans  atomic.Int64 // Map calls currently in progress

	tasksTotal   atomic.Uint64
	fanoutsTotal atomic.Uint64
	inlineTotal  atomic.Uint64 // fan-outs that borrowed no worker (pool starved or n == 1)
}

// New returns a pool of the given size (size < 1 means GOMAXPROCS). The
// size bounds extra concurrency only: every Map additionally runs on its
// caller, so a pool of size 1 still lets two concurrent fan-outs make
// progress on two goroutines.
func New(size int) *Pool {
	if size < 1 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tokens: make(chan struct{}, size), size: size}
	for i := 0; i < size; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Size returns the number of borrowable workers.
func (p *Pool) Size() int { return p.size }

// Map runs task(0) … task(n-1), each exactly once, on the calling
// goroutine plus up to n-1 borrowed pool workers, and returns after every
// started task has finished. Tasks are claimed from a shared counter, so
// which goroutine runs which index is scheduling-dependent — callers must
// make tasks independent and merge results by index.
//
// ctx is consulted before each task: once ctx is done, unclaimed tasks are
// skipped (already-running ones finish — cooperative abort inside a task
// is the task's own business, e.g. the LP solver's interrupt hook). The
// returned error is the lowest-index task failure, which makes the error
// deterministic whenever errors are (ctx errors are recorded at every
// skipped index, so a pure cancellation reports ctx.Err()).
func (p *Pool) Map(ctx context.Context, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	p.fanoutsTotal.Add(1)
	p.fans.Add(1)
	defer p.fans.Add(-1)

	errs := make([]error, n)
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			p.tasks.Add(1)
			p.tasksTotal.Add(1)
			if err := ctx.Err(); err != nil {
				errs[i] = err
			} else if err := task(i); err != nil {
				errs[i] = err
			}
			p.tasks.Add(-1)
		}
	}

	var wg sync.WaitGroup
	borrowed := 0
borrow:
	for borrowed < n-1 {
		select {
		case <-p.tokens:
			borrowed++
			p.busy.Add(1)
			wg.Add(1)
			go func() {
				defer func() {
					p.busy.Add(-1)
					p.tokens <- struct{}{}
					wg.Done()
				}()
				run()
			}()
		default:
			break borrow // pool exhausted: the caller carries the rest
		}
	}
	if borrowed == 0 {
		p.inlineTotal.Add(1)
	}
	run()
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Fanout adapts the pool to the plain fan-out function shape consumed by
// internal/mechanism and internal/subgraph (which must not depend on this
// package or on context plumbing): the returned closure runs each wave
// through Map under ctx.
func (p *Pool) Fanout(ctx context.Context) func(n int, task func(i int) error) error {
	return func(n int, task func(i int) error) error {
		return p.Map(ctx, n, task)
	}
}

// Stats is a point-in-time snapshot of the pool. Size is fixed; Busy,
// Tasks and Fanouts are instantaneous gauges; the *Total fields are
// monotone counters over the pool's life.
type Stats struct {
	Size    int   `json:"size"`          // borrowable workers
	Busy    int64 `json:"busy"`          // workers currently borrowed
	Tasks   int64 `json:"tasksInFlight"` // tasks currently executing, callers included
	Fanouts int64 `json:"fanouts"`       // Map calls currently in progress

	TasksTotal   uint64 `json:"tasksTotal"`    // tasks executed (or skipped as canceled)
	FanoutsTotal uint64 `json:"fanoutsTotal"`  // Map calls started
	InlineTotal  uint64 `json:"fanoutsInline"` // Map calls that borrowed no worker (starved pool or single task)
}

// Stats snapshots the pool's gauges and counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Size:         p.size,
		Busy:         p.busy.Load(),
		Tasks:        p.tasks.Load(),
		Fanouts:      p.fans.Load(),
		TasksTotal:   p.tasksTotal.Load(),
		FanoutsTotal: p.fanoutsTotal.Load(),
		InlineTotal:  p.inlineTotal.Load(),
	}
}
