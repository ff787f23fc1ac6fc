package service

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"recmech/internal/plan"
	"recmech/internal/pool"
	"recmech/internal/trace"
)

// compileWorkers returns the pool handed to plan.CompileContext, or nil
// when the pool has a single worker: GOMAXPROCS=1 means "exactly the
// sequential analysis", with zero fan-out machinery on the path — the
// honest baseline the scaling benchmarks (and a single-core box) compare
// against.
func (s *Service) compileWorkers() *pool.Pool {
	if s.compilePool.Size() <= 1 {
		return nil
	}
	return s.compilePool
}

// acquire takes a worker slot (carrying its RNG stream), honoring ctx while
// queued, and observes the wait in the queue-wait histogram.
func (s *Service) acquire(ctx context.Context) (*rand.Rand, error) {
	// Fast path: a free slot means zero queue wait — skip the clock reads
	// so the uncontended case pays one histogram observe and nothing more.
	select {
	case rng := <-s.slots:
		s.met.queueWait.Observe(0)
		return rng, nil
	default:
	}
	start := time.Now()
	// The blocking branch records a queue.wait span when the request is
	// traced: admission stalls are invisible to the compile profile, and
	// "slow query" is as often "stuck behind other queries" as "expensive
	// compile". The fast path above deliberately records nothing — a free
	// slot is not a wait.
	qsp := trace.Child(ctx, "queue.wait")
	select {
	case rng := <-s.slots:
		qsp.End()
		s.met.queueWait.ObserveSince(start)
		return rng, nil
	case <-ctx.Done():
		qsp.Str("error", ctx.Err().Error()).End()
		return nil, ctx.Err()
	}
}

func (s *Service) releaseSlot(rng *rand.Rand) { s.slots <- rng }

// fetchPlan fetches the compiled plan for a normalized request against a
// dataset snapshot, compiling (and caching) it on a miss. Concurrent
// identical requests coalesce into one compilation.
func (s *Service) fetchPlan(ctx context.Context, ds *Dataset, req *Request) (*plan.Plan, bool, error) {
	key, err := req.ensurePlanKey(ds)
	if err != nil {
		return nil, false, err
	}
	pl, hit, err := s.plans.Do(ctx, key, func() (*plan.Plan, error) {
		p, err := plan.CompileContext(ctx, plan.Source{Graph: ds.Graph, DB: ds.DB, Universe: ds.Universe}, req.spec, s.compileWorkers())
		if err == nil {
			s.compiles.note(p.Profile())
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

// stats snapshots the fresh-compile aggregates.
func (c *compileRecord) stats() CompileStats {
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

// execute evaluates one normalized request against a dataset snapshot and
// returns a single ε-DP release, reporting whether the plan came from the
// cache (planHit) so callers can attribute the latency to the cheap
// release-only path or a full compile. It blocks while the pool is full
// (honoring ctx; a cancellation while queued or between LP evaluations
// aborts the query) and never touches the budget — the caller reserves
// before and commits after, so a failure here is refundable.
func (s *Service) execute(ctx context.Context, ds *Dataset, req *Request) (value float64, planHit bool, err error) {
	rng, err := s.acquire(ctx)
	if err != nil {
		return 0, false, err
	}
	defer s.releaseSlot(rng)
	if s.testHookRunning != nil {
		s.testHookRunning()
	}
	pl, hit, err := s.fetchPlan(ctx, ds, req)
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
	if obs.PredictedOK {
		s.met.observeAccuracy(req.Kind, obs.Predicted.Error, obs.NoiseMagnitude)
	}
	// Estimator telemetry: which tier served the release, and the
	// contract's relative error for sampled ones — the operator's view of
	// how tight the estimator is running in practice.
	if res, ok := pl.EstimateResult(); ok {
		s.met.observeEstimator(res.Contract.RelError)
	} else {
		s.met.estExact.Inc()
	}
	return obs.Value, hit, nil
}
