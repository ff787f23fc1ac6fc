package service

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"recmech/internal/noise"
	"recmech/internal/plan"
	"recmech/internal/pool"
	"recmech/internal/trace"
)

// Executor runs queries on a bounded worker pool through the plan layer:
// each request is compiled once into a plan (parse, canonicalize, derive
// the sensitive K-relation, build the LP encoding) that is cached keyed on
// the dataset snapshot and the canonical workload, so repeated releases of
// the same query — at any ε — skip straight to the noise draws. Admission
// is a counting semaphore: at most workers queries compile or release at
// once and the rest queue, which keeps tail latency bounded instead of
// letting every goroutine thrash the CPUs.
type Executor struct {
	// slots is both the admission semaphore and the RNG supply: worker i's
	// stream is seeded once (seed+i) at construction and consumed
	// sequentially by whichever queries hold that slot. Seeding a
	// math/rand source costs tens of microseconds — dominant next to a
	// plan-cached release — so streams live as long as the executor.
	slots chan *rand.Rand
	plans *plan.Cache

	// compilePool is the one process-wide compute pool behind every fresh
	// compile and ladder solve: enumeration shards and H/G probe waves from
	// all concurrent queries borrow workers from it, so total compile
	// concurrency is bounded by its size (plus one caller goroutine per
	// in-flight query) instead of growing N·cores under N queries.
	compilePool *pool.Pool

	// met, when set (the service wires it), observes queue wait: the time
	// a query spends blocked on admission before holding a worker slot.
	met *serviceMetrics

	// compiles aggregates the retained profiles of fresh plan compiles
	// (cache misses led by this executor), for GET /v1/stats.
	compiles compileRecord

	// testHookRunning, when set, is called after admission (worker slot
	// held) and before the plan runs — test-only, to make occupancy and
	// cancellation windows deterministic.
	testHookRunning func()
}

// NewExecutor returns an executor running at most workers queries
// concurrently (workers < 1 means 1), caching up to planEntries compiled
// plans and sharing one compute pool of parallelism workers
// (parallelism < 1 means GOMAXPROCS) across every compile and ladder
// solve. Parallelism is capped at GOMAXPROCS: pool workers beyond the
// scheduler's parallelism can only time-slice, which buys overhead and no
// overlap. seed makes the noise reproducible for a deterministic arrival
// order: worker i draws from the stream noise.NewRand(seed+i).
func NewExecutor(workers, planEntries, parallelism int, seed int64) *Executor {
	if workers < 1 {
		workers = 1
	}
	if max := runtime.GOMAXPROCS(0); parallelism > max {
		parallelism = max
	}
	e := &Executor{
		slots:       make(chan *rand.Rand, workers),
		plans:       plan.NewCache(planEntries),
		compilePool: pool.New(parallelism),
	}
	for i := 0; i < workers; i++ {
		e.slots <- noise.NewRand(seed + int64(i))
	}
	return e
}

// CompilePool exposes the shared compute pool (for metrics and embedders).
func (e *Executor) CompilePool() *pool.Pool { return e.compilePool }

// compileWorkers returns the pool handed to plan.CompileContext, or nil
// when the pool has a single worker: -compile-parallelism=1 means "exactly
// the sequential analysis", with zero fan-out machinery on the path — the
// honest baseline the scaling benchmarks (and a single-core box) compare
// against.
func (e *Executor) compileWorkers() *pool.Pool {
	if e.compilePool.Size() <= 1 {
		return nil
	}
	return e.compilePool
}

// acquire takes a worker slot (carrying its RNG stream), honoring ctx while
// queued, and observes the wait in the queue-wait histogram.
func (e *Executor) acquire(ctx context.Context) (*rand.Rand, error) {
	// Fast path: a free slot means zero queue wait — skip the clock reads
	// so the uncontended case pays one histogram observe and nothing more.
	select {
	case rng := <-e.slots:
		if e.met != nil {
			e.met.queueWait.Observe(0)
		}
		return rng, nil
	default:
	}
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	// The blocking branch records a queue.wait span when the request is
	// traced: admission stalls are invisible to the compile profile, and
	// "slow query" is as often "stuck behind other queries" as "expensive
	// compile". The fast path above deliberately records nothing — a free
	// slot is not a wait.
	qsp := trace.Child(ctx, "queue.wait")
	select {
	case rng := <-e.slots:
		qsp.End()
		if e.met != nil {
			e.met.queueWait.ObserveSince(start)
		}
		return rng, nil
	case <-ctx.Done():
		qsp.Str("error", ctx.Err().Error()).End()
		return nil, ctx.Err()
	}
}

func (e *Executor) releaseSlot(rng *rand.Rand) { e.slots <- rng }

// PlanCacheLen reports the number of cached (or in-flight) plans.
func (e *Executor) PlanCacheLen() int { return e.plans.Len() }

// PlanReady reports whether the plan cache holds a completed plan for key —
// the serving layer's trace policy: a request whose plan is not ready is
// about to pay for (or wait out) a compile, which is exactly what operators
// want span trees for. In-flight compiles report false, so a coalesced
// waiter of a slow compile is traced like its leader.
func (e *Executor) PlanReady(key string) bool { return e.plans.Has(key) }

// plan fetches the compiled plan for a normalized request against a dataset
// snapshot, compiling (and caching) it on a miss. Concurrent identical
// requests coalesce into one compilation.
func (e *Executor) plan(ctx context.Context, ds *Dataset, req *Request) (*plan.Plan, bool, error) {
	key, err := req.ensurePlanKey(ds)
	if err != nil {
		return nil, false, err
	}
	pl, hit, err := e.plans.Do(ctx, key, func() (*plan.Plan, error) {
		p, err := plan.CompileContext(ctx, plan.Source{Graph: ds.Graph, DB: ds.DB, Universe: ds.Universe}, req.spec, e.compileWorkers())
		if err == nil {
			e.compiles.note(p.Profile())
		}
		return p, err
	})
	if err != nil {
		return nil, false, asRequestError(err)
	}
	return pl, hit, nil
}

// compileRecord aggregates fresh compile profiles under a mutex: compiles
// are rare and expensive (milliseconds to seconds), so a lock here costs
// nothing measurable and keeps the stats snapshot consistent.
type compileRecord struct {
	mu            sync.Mutex
	count         uint64
	buildSeconds  float64
	encodeSeconds float64
	totalSeconds  float64
	last          plan.CompileProfile
}

func (c *compileRecord) note(p plan.CompileProfile) {
	c.mu.Lock()
	c.count++
	c.buildSeconds += p.BuildSeconds
	c.encodeSeconds += p.EncodeSeconds
	c.totalSeconds += p.TotalSeconds
	c.last = p
	c.mu.Unlock()
}

// CompileStats is the GET /v1/stats "compiles" section: totals across every
// fresh plan compile since process start, plus the most recent profile.
type CompileStats struct {
	Count         uint64               `json:"count"`
	BuildSeconds  float64              `json:"buildSeconds"`
	EncodeSeconds float64              `json:"encodeSeconds"`
	TotalSeconds  float64              `json:"totalSeconds"`
	Last          *plan.CompileProfile `json:"last,omitempty"`
}

// CompileStats snapshots the executor's fresh-compile aggregates.
func (e *Executor) CompileStats() CompileStats {
	c := &e.compiles
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CompileStats{
		Count:         c.count,
		BuildSeconds:  c.buildSeconds,
		EncodeSeconds: c.encodeSeconds,
		TotalSeconds:  c.totalSeconds,
	}
	if c.count > 0 {
		last := c.last
		st.Last = &last
	}
	return st
}

// Execute evaluates one normalized request against a dataset snapshot and
// returns a single ε-DP release, reporting whether the plan came from the
// cache (planHit) so callers can attribute the latency to the cheap
// release-only path or a full compile. It blocks while the pool is full
// (honoring ctx; a cancellation while queued or between LP evaluations
// aborts the query) and never touches the budget — the caller reserves
// before and commits after, so a failure here is refundable.
func (e *Executor) Execute(ctx context.Context, ds *Dataset, req *Request) (value float64, planHit bool, err error) {
	rng, err := e.acquire(ctx)
	if err != nil {
		return 0, false, err
	}
	defer e.releaseSlot(rng)
	if e.testHookRunning != nil {
		e.testHookRunning()
	}
	pl, hit, err := e.plan(ctx, ds, req)
	if err != nil {
		return 0, hit, err
	}
	obs, err := pl.ReleaseObserved(ctx, req.Epsilon, rng)
	if err != nil {
		return 0, hit, asRequestError(err)
	}
	// Accuracy telemetry is an operator surface (histograms on /metrics,
	// aggregates on /v1/stats) and is recorded unconditionally — the
	// ExposeAccuracy gate only governs what tenants see per query.
	if e.met != nil {
		if obs.PredictedOK {
			e.met.observeAccuracy(req.Kind, obs.Predicted.Error, obs.NoiseMagnitude)
		}
		// Estimator telemetry: which tier served the release, and the
		// contract's relative error for sampled ones — the operator's view of
		// how tight the estimator is running in practice.
		if res, ok := pl.EstimateResult(); ok {
			e.met.observeEstimator(res.Contract.RelError)
		} else {
			e.met.estExact.Inc()
		}
	}
	return obs.Value, hit, nil
}

// PlanFor fetches (or compiles) the plan for a normalized request under the
// same admission control as Execute, without drawing a release or touching
// the budget: the zero-ε path behind Service.Prepare and Service.Advise.
// With warm, the plan's Δ ladder and central X search are also solved for
// the request's ε (the server default when the request omits it), so the
// next Query at that ε typically pays only the noise draws. Reports whether
// the plan was already cached.
func (e *Executor) PlanFor(ctx context.Context, ds *Dataset, req *Request, warm bool) (*plan.Plan, bool, error) {
	rng, err := e.acquire(ctx)
	if err != nil {
		return nil, false, err
	}
	defer e.releaseSlot(rng)
	pl, hit, err := e.plan(ctx, ds, req)
	if err == nil && warm {
		if err = pl.Warm(ctx, req.Epsilon); err != nil {
			err = asRequestError(err)
		}
	}
	return pl, hit, err
}
