package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/noise"
	"recmech/internal/plan"
	"recmech/internal/pool"
	"recmech/internal/query"
	"recmech/internal/store"
	"recmech/internal/trace"
)

// Config tunes a Service. The zero value is usable: every field has a
// sensible default filled in by New.
type Config struct {
	// DatasetBudget is the total ε granted to each dataset at registration
	// (individually adjustable later with GrantBudget). Default 10.
	DatasetBudget float64
	// DefaultEpsilon is charged when a request omits ε. Default 0.5.
	DefaultEpsilon float64
	// MaxEpsilon caps any single request's ε, so one query cannot drain a
	// dataset. 0 disables the cap (the dataset budget still applies).
	MaxEpsilon float64
	// Workers bounds concurrent mechanism runs. Default GOMAXPROCS.
	Workers int
	// Seed makes the noise streams reproducible across runs. Default 1.
	Seed int64
	// PlanEntries bounds the compiled-plan cache; the oldest plans are
	// evicted beyond it (a repeat then recompiles). Plans hold LP state and
	// solved sequence values, so the bound is deliberately tighter than
	// the release cache's. Default 512.
	PlanEntries int
	// MaxUploadBytes caps a PUT /v1/datasets/{name} body; a larger upload
	// is rejected with a typed 413 instead of being buffered. Default 64 MiB.
	MaxUploadBytes int64
	// MaxBatchItems caps the number of queries in one POST /v2/jobs batch.
	// Default 64.
	MaxBatchItems int
	// MaxJobs bounds the job table both ways: at most this many jobs may
	// be active (queued/running) at once — submissions beyond it get a
	// typed 429 — and at most this many finished jobs are retained for
	// GET /v2/jobs, oldest-finished evicted first. Default 1024.
	MaxJobs int
	// TraceSampleEvery traces 1 in N warm (plan-cached) queries in addition
	// to the always-traced fresh compiles and job items. 0 (the default)
	// disables warm sampling, keeping tracing entirely off the prepared hot
	// path; see DESIGN.md "Per-query tracing".
	TraceSampleEvery int
	// ExposeAccuracy enables the tenant-facing accuracy surfaces: the
	// accuracy block on /v2/prepare responses and the POST /v2/advise
	// endpoint. Off by default, deliberately: the Theorem 1 error bound is
	// computed from the sensitive data (via G_{|P|}), so handing it to the
	// party issuing queries discloses information outside the DP
	// guarantee. Operator surfaces (/v1/stats, /metrics, traces, the
	// slow-query log) carry accuracy telemetry regardless of this flag —
	// they sit inside the trust boundary, beside Δ and the WAL. See
	// DESIGN.md "Accuracy telemetry and the data-dependence caveat".
	ExposeAccuracy bool
	// SpendRateWindow is the sliding window over which per-dataset ε burn
	// rates — DatasetStats.EpsilonPerHour, the recmech_budget_burn
	// gauge, and the recmech_budget_ttl_seconds forecast — are computed.
	// Default 1h.
	SpendRateWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.DatasetBudget <= 0 {
		c.DatasetBudget = 10
	}
	if c.DefaultEpsilon <= 0 {
		c.DefaultEpsilon = 0.5
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PlanEntries < 1 {
		c.PlanEntries = 512
	}
	if c.MaxUploadBytes < 1 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxBatchItems < 1 {
		c.MaxBatchItems = 64
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 1024
	}
	if c.SpendRateWindow <= 0 {
		c.SpendRateWindow = time.Hour
	}
	return c
}

const (
	// releaseCacheEntries bounds the release cache: the oldest recorded
	// releases are evicted beyond it (a repeat then spends fresh ε). It is
	// the durable store's default retention, so a store opened with the
	// default retains every release the cache can replay.
	releaseCacheEntries = store.DefaultMaxReleases
	// traceRingEntries bounds the ring of recent completed traces behind
	// GET /v1/traces; the oldest are evicted beyond it.
	traceRingEntries = 256
)

// Service is the concurrent DP query service: registry + accountant +
// executor + release cache behind one Query method. Construct with New,
// register datasets, then serve Query calls from any number of goroutines
// (NewHandler adapts it to HTTP for cmd/recmechd).
type Service struct {
	cfg   Config
	reg   *Registry
	acct  *Accountant
	cache *ReleaseCache
	jobs  *jobTable
	met   *serviceMetrics
	tr    *trace.Tracer
	store *store.Store // nil for a purely in-memory service

	// slots is both the admission semaphore and the RNG supply: at most
	// Workers queries compile or release at once and the rest queue, which
	// keeps tail latency bounded. Worker i's stream is seeded once
	// (Seed+i) at construction and consumed sequentially by whichever
	// queries hold that slot: seeding a math/rand source costs tens of
	// microseconds — dominant next to a plan-cached release — so streams
	// live as long as the service.
	slots chan *rand.Rand
	// plans caches each request's compiled plan (parse, canonicalize,
	// derive the sensitive K-relation, build the LP encoding) keyed on the
	// dataset snapshot and the canonical workload, so repeated releases of
	// the same query — at any ε — skip straight to the noise draws.
	plans *plan.Cache
	// compilePool is the one compute pool behind every fresh compile and
	// ladder solve: enumeration shards and H/G probe waves from all
	// concurrent queries borrow workers from it, so total compile
	// concurrency is bounded by its size, GOMAXPROCS (plus one caller
	// goroutine per in-flight query), instead of growing N·cores under N
	// queries. Parallelism never changes an output bit (see internal/plan).
	compilePool *pool.Pool
	// compiles aggregates the profiles of fresh plan compiles, for
	// GET /v1/stats.
	compiles compileRecord
	// testHookRunning, when set, is called after admission (worker slot
	// held) and before the plan runs — test-only, to make occupancy and
	// cancellation windows deterministic.
	testHookRunning func()

	// adminMu serializes dataset mutations (upload/append/delete) so the
	// durable store and the in-memory registry can never diverge: without it
	// a DELETE racing a PUT could tombstone the manifest while the PUT's
	// registration resurrects the dataset in memory only.
	adminMu sync.Mutex

	// rewarmWG tracks the background plan advances an append starts (see
	// rewarmPlans) until each is published in the plan cache. Only tests
	// wait on it, for lineage maintenance to settle; shutdown does not.
	rewarmWG sync.WaitGroup
}

// New returns an empty in-memory service: budget and releases die with the
// process. Production deployments should use NewWithStore.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		reg:   NewRegistry(),
		acct:  NewAccountant(),
		cache: NewReleaseCache(releaseCacheEntries),
		jobs:  newJobTable(cfg.MaxJobs),
		met:   newServiceMetrics(cfg.SpendRateWindow),
		tr:    trace.New(trace.Options{SampleEvery: cfg.TraceSampleEvery, Ring: traceRingEntries}),
		slots: make(chan *rand.Rand, cfg.Workers),
		plans: plan.NewCache(cfg.PlanEntries),
		// Pool workers beyond the scheduler's parallelism could only
		// time-slice, which buys overhead and no overlap.
		compilePool: pool.New(runtime.GOMAXPROCS(0)),
	}
	for i := range cfg.Workers {
		s.slots <- noise.NewRand(cfg.Seed + int64(i))
	}
	s.met.bind(s)
	return s
}

// NewWithStore returns a service backed by a durable store: the accountant
// journals every budget transition to the store's WAL before applying it,
// recovered ledgers are restored (reservations in flight at a crash count
// as spent — recovery can only shrink remaining budget, never grow it),
// datasets persisted under the store load into the registry at their
// durable versions, and previously recorded releases replay from the cache
// at zero additional ε. Datasets that fail to load are skipped and
// returned as warnings; the service always comes up.
func NewWithStore(cfg Config, st *store.Store) (*Service, []error) {
	s := New(cfg)
	s.store = st
	s.met.bindStore(st)
	s.acct.SetJournal(st)
	for name, l := range st.Ledgers() {
		s.acct.Restore(name, l.Total, l.Spent)
	}
	files, warns := st.Datasets().LoadAll()
	for _, df := range files {
		if _, err := s.registerFile(df); err != nil {
			warns = append(warns, fmt.Errorf("service: dataset %q: funding ledger: %w", df.Name, err))
		}
		// Replay journalled appends beyond the materialized version, so the
		// dataset comes back at the micro-generation the WAL last recorded —
		// the generation the retained release keys (below) are fenced to.
		if df.Kind == store.KindGraph {
			warns = append(warns, s.replayDeltas(df)...)
		}
	}
	for _, rel := range st.Releases() {
		var resp Response
		if err := json.Unmarshal(rel.Payload, &resp); err != nil {
			warns = append(warns, fmt.Errorf("service: skipping undecodable recorded release %q: %w", rel.Key, err))
			continue
		}
		s.cache.Preload(rel.Key, resp)
		// Replay ε-spend attribution from the same journal: each retained
		// release record is one real past spend of resp.Epsilon on
		// resp.Dataset's resp.Kind family, so the per-family attribution
		// in GET /v1/datasets/{name}/stats is a pure function of the WAL —
		// identical before and after any crash/restart. (Records pruned
		// past the retention bound are not re-attributed; the ledger's
		// Spent remains the authoritative total.)
		s.met.attributeSpend(resp.Dataset, resp.Kind, resp.Epsilon)
	}
	return s, warns
}

// registerFile installs a store-loaded dataset at its durable version and
// funds it. The dataset is registered even when funding fails (the caller
// decides whether that is a boot warning or a request error).
func (s *Service) registerFile(df *store.DatasetFile) (*Dataset, error) {
	var d *Dataset
	if df.Kind == store.KindGraph {
		d = s.reg.PutGraphVersion(df.Name, df.Graph, df.Version)
	} else {
		d = s.reg.PutRelationalVersion(df.Name, df.Universe, df.DB, df.Version)
	}
	return d, s.fund(d)
}

// fund grants the default budget to a dataset with no ledger yet. An
// existing ledger — recovered from the journal, or operator-adjusted — is
// left untouched, so re-registration and delete/re-create cycles can
// never reset spent ε. (The per-dataset metrics block, which unlike the
// ledger is dropped on delete, is minted here too: fund sits on every
// upload/restore registration path.)
func (s *Service) fund(d *Dataset) error {
	s.met.ensureDS(d.Name)
	if _, ok := s.acct.Status(d.Name); ok {
		return nil
	}
	return s.acct.Grant(d.Name, s.cfg.DatasetBudget)
}

// AddGraph registers a graph dataset and grants it the default budget
// (in-memory only — not persisted to the store; use UploadGraph for that).
func (s *Service) AddGraph(name string, g *graph.Graph) error {
	d := s.reg.PutGraph(name, g)
	s.met.ensureDS(d.Name)
	s.purgeStale(d.Name, currentKeyPrefix(d))
	return s.acct.Grant(d.Name, s.cfg.DatasetBudget)
}

// AddRelational registers a relational dataset (a table catalogue plus the
// universe its annotations resolve in) and grants it the default budget
// (in-memory only — not persisted; use UploadTables for that).
func (s *Service) AddRelational(name string, u *boolexpr.Universe, db *query.Database) error {
	d := s.reg.PutRelational(name, u, db)
	s.met.ensureDS(d.Name)
	s.purgeStale(d.Name, currentKeyPrefix(d))
	return s.acct.Grant(d.Name, s.cfg.DatasetBudget)
}

// GrantBudget overrides a dataset's total ε budget.
func (s *Service) GrantBudget(name string, epsilon float64) error {
	return s.acct.Grant(canonName(name), epsilon)
}

// UploadGraph validates, persists (when the service is store-backed), and
// registers an edge-list graph dataset under name. Re-uploading bumps the
// dataset's version, fencing stale cached releases; an existing ε ledger is
// preserved, so delete/re-upload cycles cannot reset spent budget.
func (s *Service) UploadGraph(name string, edgeList []byte) (DatasetInfo, error) {
	return s.upload(name, "graph",
		func(canon string) (*store.DatasetFile, error) {
			// Floor past the registry's highest generation: journalled
			// appends advance generations beyond the manifest's version, and
			// a re-upload landing on one of them would alias retained
			// release keys onto new data.
			return s.store.Datasets().PutGraphFloor(canon, edgeList, s.reg.LastGen(canon)+1)
		},
		func(canon string) (*Dataset, error) {
			g, err := graph.ReadEdgeList(bytes.NewReader(edgeList))
			if err != nil {
				return nil, err
			}
			return s.reg.PutGraph(canon, g), nil
		})
}

// UploadTables validates, persists (when store-backed), and registers a
// relational dataset: named annotated tables sharing one participant
// universe. Versioning and ledger semantics match UploadGraph.
func (s *Service) UploadTables(name string, tables map[string][]byte) (DatasetInfo, error) {
	return s.upload(name, "relational",
		func(canon string) (*store.DatasetFile, error) {
			// Same generation floor as UploadGraph (see there).
			return s.store.Datasets().PutTablesFloor(canon, tables, s.reg.LastGen(canon)+1)
		},
		func(canon string) (*Dataset, error) {
			u, db, _, err := store.ParseTables(tables)
			if err != nil {
				return nil, err
			}
			return s.reg.PutRelational(canon, u, db), nil
		})
}

// upload is the shared admin-upload flow: validate the name, persist via
// the store (which parses once; ErrBadData separates the caller's bad
// payload, a 400, from store I/O faults, a 500) or parse in memory, then
// fund the ledger if the dataset has none.
func (s *Service) upload(name, kind string,
	persist func(canon string) (*store.DatasetFile, error),
	parseMem func(canon string) (*Dataset, error),
) (DatasetInfo, error) {
	canon := canonName(name)
	if err := store.ValidateName(canon); err != nil {
		return DatasetInfo{}, badRequestf("%v", err)
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	var d *Dataset
	if s.store != nil {
		df, err := persist(canon)
		if err != nil {
			if errors.Is(err, store.ErrBadData) {
				return DatasetInfo{}, badRequestf("%s dataset %q: %v", kind, canon, err)
			}
			return DatasetInfo{}, err
		}
		if d, err = s.registerFile(df); err != nil {
			return DatasetInfo{}, err
		}
	} else {
		var err error
		if d, err = parseMem(canon); err != nil {
			return DatasetInfo{}, badRequestf("%s dataset %q: %v", kind, canon, err)
		}
		if err := s.fund(d); err != nil {
			return DatasetInfo{}, err
		}
	}
	// A re-upload supersedes every earlier generation: purge their cached
	// releases and plans eagerly (the bumped generation already fences them).
	s.purgeStale(d.Name, currentKeyPrefix(d))
	return s.describe(d), nil
}

// DeleteDataset unregisters a dataset and removes its persisted data. The
// ε ledger deliberately survives: budget already spent on releases about
// this data is spent forever, even across delete/re-create.
func (s *Service) DeleteDataset(name string) error {
	name = canonName(name)
	if err := store.ValidateName(name); err != nil {
		return badRequestf("%v", err)
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	// Tombstone the durable copy first: if that fails, the dataset stays
	// registered and queryable, rather than vanishing from memory only to
	// resurrect from disk at the next restart.
	storeHad := false
	if s.store != nil {
		// The tombstone adopts the registry's highest generation as its
		// version floor: journalled appends advance the registry past the
		// last materialized version, and without the floor a re-created
		// dataset could re-issue one of those generations for new data —
		// aliasing a retained release key, which is a privacy bug.
		err := s.store.Datasets().DeleteFloor(name, s.reg.LastGen(name))
		if err != nil && !errors.Is(err, store.ErrNoDataset) {
			return err
		}
		storeHad = err == nil
		if len(s.store.DeltasFor(name)) > 0 {
			_ = s.store.DropDeltas(name, ^uint64(0)) // best-effort: orphans are inert
		}
	}
	if !s.reg.Delete(name) && !storeHad {
		return unknownDataset(name)
	}
	// Cached releases and plans of every generation are unreachable now —
	// their keys carry a generation a re-created dataset can never reuse —
	// so reclaim them eagerly instead of waiting for FIFO eviction.
	s.purgeStale(name, "")
	// The in-memory per-dataset metrics go with the dataset (the durable ε
	// ledger deliberately does not): a re-created dataset is new data and
	// must not inherit the old one's query counts or ε-rate history.
	s.met.dropDataset(name)
	return nil
}

// Datasets lists the registered datasets, each carrying its ε ledger
// snapshot so operators see data and budget state in one call.
func (s *Service) Datasets() []DatasetInfo {
	infos := s.reg.List()
	for i := range infos {
		if st, ok := s.acct.Status(infos[i].Name); ok {
			infos[i].Budget = &st
		}
	}
	return infos
}

// describe builds the DatasetInfo (with budget) for one dataset snapshot.
func (s *Service) describe(d *Dataset) DatasetInfo {
	info := d.info()
	if st, ok := s.acct.Status(d.Name); ok {
		info.Budget = &st
	}
	return info
}

// Budget snapshots a dataset's ε ledger.
func (s *Service) Budget(name string) (BudgetStatus, error) {
	st, ok := s.acct.Status(canonName(name))
	if !ok {
		return BudgetStatus{}, unknownDataset(name)
	}
	return st, nil
}

// Query answers one differentially private query. The life of a request:
//
//  1. normalize (compiling the workload spec) and resolve the dataset
//     snapshot;
//  2. consult the release cache — a recorded identical release is replayed
//     at zero additional ε, and concurrent identical queries coalesce into
//     one flight;
//  3. otherwise reserve ε from the dataset's ledger (typed rejection when
//     exhausted, spending nothing), fetch or compile the query's plan, draw
//     the release on the worker pool, then commit the reservation — or
//     refund it if execution failed or the caller's context was canceled
//     first.
//
// Any error leaves the ledger exactly as it was: in particular a request
// canceled mid-flight refunds its reservation and records nothing, so a
// hung-up client never spends ε on an answer nobody received. Coalesced
// waiters of a canceled flight receive the cancellation error; the failed
// entry is dropped, so a retry recomputes (the compiled plan survives in
// the plan cache, making the retry cheap).
func (s *Service) Query(ctx context.Context, req Request) (Response, error) {
	if err := req.normalize(s.cfg); err != nil {
		return Response{}, err
	}
	return s.do(ctx, &req, nil, false)
}

// Prepare compiles (or finds compiled) the plan for a query without drawing
// a release, and warms the sequence ladder for the request's ε (the server
// default when omitted): zero ε is spent, and the next Query for the same
// workload at that ε typically pays only the noise draws. It reports
// whether the plan was already materialized.
func (s *Service) Prepare(ctx context.Context, req Request) (PrepareInfo, error) {
	pp, err := s.planFor(ctx, "prepare", &req, true)
	if err != nil {
		return PrepareInfo{}, err
	}
	info := PrepareInfo{Dataset: pp.ds.Name, Kind: req.Kind, Privacy: req.Privacy, Mode: req.Mode, AlreadyPrepared: pp.hit, TraceID: pp.traceID}
	if prof := pp.pl.Profile(); prof.Kind != "" {
		info.Compile = &prof
	}
	// The accuracy and estimator-contract blocks are tenant-facing and
	// data-dependent, so they ride only on servers that opted in (see
	// Config.ExposeAccuracy). A profile failure degrades to omission: the
	// prepare itself succeeded.
	if s.cfg.ExposeAccuracy {
		if b, err := pp.pl.ErrorProfile(req.Epsilon, DefaultTail); err == nil {
			acc := accuracyInfo(req.Epsilon, DefaultTail, b)
			info.Accuracy = &acc
		}
		if res, ok := pp.pl.EstimateResult(); ok {
			est := estimateInfo(res)
			info.Estimate = &est
		}
	}
	return info, nil
}

// prepared is what the zero-ε plan path hands Prepare and Advise: the
// resolved dataset snapshot, the plan, whether the plan was already
// cached, and the ID of the trace recorded for it ("" when none was).
type prepared struct {
	ds      *Dataset
	pl      *plan.Plan
	hit     bool
	traceID string
}

// planFor is the zero-ε plan path behind Prepare and Advise: normalize the
// request; resolve its dataset; trace the path as op only when the plan is
// cold — no completed plan is cached for the key, so a compile (or
// a join onto one in flight) follows; fetch or compile the plan under a
// worker slot, warming its ladder for req.Epsilon when warm is set and
// retrying a flight leader's cancellation; and finish the trace.
func (s *Service) planFor(ctx context.Context, op string, req *Request, warm bool) (prepared, error) {
	if err := req.normalize(s.cfg); err != nil {
		return prepared{}, err
	}
	ds, err := s.reg.Get(req.Dataset)
	if err != nil {
		return prepared{}, err
	}
	var root *trace.Span
	tctx := ctx
	if pk, kerr := req.ensurePlanKey(ds); kerr == nil && !s.plans.Has(pk) {
		root = s.tr.Start(op)
		annotateRoot(root, ds, req)
		tctx = trace.NewContext(ctx, root)
	}
	pp := prepared{ds: ds}
	err = retryLeaderCancel(ctx, func() error {
		rng, err := s.acquire(tctx)
		if err != nil {
			return err
		}
		defer s.releaseSlot(rng)
		if pp.pl, pp.hit, err = s.fetchPlan(tctx, ds, req); err == nil && warm {
			err = asRequestError(pp.pl.Warm(tctx, req.Epsilon))
		}
		return err
	})
	if root != nil {
		root.Bool("planHit", pp.hit)
		if err != nil {
			root.Str("error", err.Error())
		}
		pp.traceID = s.tr.Finish(root)
		noteTrace(ctx, pp.traceID)
	}
	return pp, err
}

// retryLeaderCancel runs op until it stops failing with another flight
// leader's cancellation: a cancellation error while this caller's own ctx
// is live means op merely joined — or raced the fallout of — a flight
// whose leader hung up (singleflight plan compiles and release flights
// both run under their leader's ctx, and the failed entry is dropped), so
// the retry leads a fresh attempt on a live ctx. The caller's own
// cancellation, and every other error, passes through.
func retryLeaderCancel(ctx context.Context, op func() error) error {
	for {
		err := op()
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return err
	}
}

// PrepareInfo reports the outcome of a Prepare call. No ε is spent, yet
// Compile discloses counts of the data: its Tuples is the exact answer of
// every exact count plan (see plan.CompileProfile).
type PrepareInfo struct {
	Dataset string `json:"dataset"`
	Kind    string `json:"kind"`
	Privacy string `json:"privacy"`
	// Mode is the compile tier the request selected ("exact" or "sampled").
	Mode string `json:"mode,omitempty"`
	// AlreadyPrepared is true when the plan was cached before this call.
	AlreadyPrepared bool `json:"alreadyPrepared"`
	// TraceID names the span tree recorded for this prepare (empty when it
	// hit an already-materialized plan, which records no trace); fetch it
	// at GET /v1/traces/{id}.
	TraceID string `json:"traceId,omitempty"`
	// Compile is the plan's retained compile profile: deterministic
	// wall-time shape of the expensive pipeline (also in GET /v1/stats as
	// an aggregate). Nil when the compile failed before producing a plan.
	Compile *plan.CompileProfile `json:"compile,omitempty"`
	// Accuracy is the Theorem 1 utility profile at the prepared ε (tail
	// DefaultTail). Present only on servers started with -expose-accuracy:
	// the bound is data-dependent, so per-query exposure is an explicit
	// operator opt-in (see DESIGN.md).
	Accuracy *AccuracyInfo `json:"accuracy,omitempty"`
	// Estimate is the sampled plan's estimator contract (method, sample
	// count, concentration bound) — never the estimate itself, which
	// approximates the true answer and is not differentially private.
	// Present only for sampled plans on servers started with
	// -expose-accuracy, for the same data-dependence reason as Accuracy.
	Estimate *EstimateInfo `json:"estimate,omitempty"`
}

// do is the serving core shared by Query and the async job runner: resolve
// the snapshot, consult the release cache, and on a miss spend ε through
// the two-phase ledger protocol around a plan-based execution.
//
// pre, when non-nil, is a reservation the caller already holds for exactly
// req.Epsilon on req.Dataset (batch jobs reserve all items atomically up
// front). do guarantees pre is settled on every path: committed by a fresh
// release, refunded on failure, and refunded when the response was shared —
// a cache replay or a coalesced flight — and therefore cost no ε.
//
// forceTrace records a span tree unconditionally (the job runner sets it, so
// every batch item is attributable after the fact, replays included); a
// synchronous query is traced per the policy in tracing.go — when real work
// follows a fresh plan key, or when the warm sampler fires.
func (s *Service) do(ctx context.Context, req *Request, pre *Reservation, forceTrace bool) (Response, error) {
	start := time.Now()
	ds, err := s.reg.Get(req.Dataset)
	if err != nil {
		s.met.recordQuery(req.Dataset, req.Kind, false, false, false, req.Epsilon, start, err)
		return Response{}, settleErr(pre, err)
	}
	// The access log shows the tier that served the query.
	if ri := reqInfoOf(ctx); ri != nil {
		ri.mode = req.Mode
	}
	key, err := req.cacheKey(ds)
	if err != nil {
		s.met.recordQuery(ds.Name, req.Kind, true, false, false, req.Epsilon, start, err)
		return Response{}, settleErr(pre, err)
	}
	// A forced trace starts before the release cache so replays are
	// recorded too; the policy-driven trace starts inside compute, where a
	// replay has already been ruled out.
	var root *trace.Span
	tctx := ctx
	if forceTrace {
		root = s.tr.Start("query")
		annotateRoot(root, ds, req)
		tctx = trace.NewContext(ctx, root)
	}
	preUsed := false
	planHit := false
	compute := func() (Response, error) {
		// The compute closure runs synchronously in this goroutine (at most
		// one caller per key computes, and the retry loop below re-runs it
		// sequentially), so preUsed, planHit, root and tctx need no
		// synchronization.
		//
		// A failed attempt settles only a reservation it made itself. pre
		// stays open across retries — plan compiles are cancelable, so an
		// attempt can die of a coalesced compile leader's cancellation
		// while this caller is live, and refunding the batch's atomically
		// pre-reserved ε there would let a concurrent query steal it
		// before the retry. pre is settled exactly once: committed by the
		// attempt that produces a release (preUsed), or refunded after the
		// loop by the shared epilogue below.
		if root == nil {
			// Reaching compute means no recorded release exists: real work
			// follows. Trace it when it will be expensive — no completed
			// plan is cached, so a compile (or a join onto one in flight,
			// which waits just as long) follows, or the plan is not primed,
			// so the release solves LPs — or when the warm sampler fires.
			// At default settings (sampling off) the primed hot path pays
			// only this peek. A retried attempt keeps the first attempt's
			// root, so retry spans land in the same trace.
			if pk, kerr := req.ensurePlanKey(ds); kerr == nil && (!s.primed(pk) || s.tr.Sampled()) {
				root = s.tr.Start("query")
				annotateRoot(root, ds, req)
				tctx = trace.NewContext(ctx, root)
			}
		}
		resv := pre
		if resv == nil {
			rsp := trace.StartChild(root, "budget.reserve")
			var err error
			if resv, err = s.acct.Reserve(ds.Name, req.Epsilon); err != nil {
				rsp.Str("error", err.Error()).End()
				return Response{}, err
			}
			rsp.End()
		}
		value, hit, err := s.execute(tctx, ds, req)
		planHit = hit
		root.Bool("planHit", hit)
		if err != nil {
			if resv != pre {
				resv.Refund()
			}
			return Response{}, err
		}
		csp := trace.StartChild(root, "budget.commit")
		resv.Commit()
		csp.End()
		if resv == pre {
			preUsed = true
		}
		resp := Response{Dataset: ds.Name, Kind: req.Kind, Value: value, Epsilon: req.Epsilon}
		if req.Mode == ModeSampled {
			// Stamped only for sampled releases (omitempty), so exact
			// payloads — including every pre-estimator recorded release in a
			// durable WAL — stay byte-identical.
			resp.Mode = ModeSampled
		}
		if s.store != nil && ds.Durable {
			// Journal the release so it replays after a restart at zero ε.
			// Only for durable datasets: their generation is a store
			// version, stable across restarts, so the key can never alias
			// different data. A failed append is safe to ignore: the
			// release just won't replay, and a post-restart repeat spends
			// fresh ε instead.
			if payload, err := json.Marshal(resp); err == nil {
				wsp := trace.StartChild(root, "wal.append").Int("bytes", int64(len(payload)))
				_ = s.store.Release(key, payload)
				wsp.End()
			}
		}
		return resp, nil
	}
	var (
		resp   Response
		cached bool
	)
	// Leader-cancellation retries (see retryLeaderCancel): a retried
	// compute reuses pre safely — it is settled exactly once, by the
	// committing attempt or the epilogue below.
	err = retryLeaderCancel(ctx, func() error {
		var err error
		resp, cached, err = s.cache.Do(ctx, key, compute)
		return err
	})
	if pre != nil && !preUsed {
		// No attempt committed pre: the response was shared (replay or
		// coalesced flight), the wait was canceled, or every attempt
		// failed. Either way no ε was consumed against it — settle it here,
		// exactly once.
		pre.Refund()
	}
	if root != nil {
		root.Str("outcome", budgetOutcome(cached, err))
		if err != nil {
			root.Str("error", err.Error())
		}
		noteTrace(ctx, s.tr.Finish(root))
	}
	s.met.recordQuery(ds.Name, req.Kind, true, cached, planHit, req.Epsilon, start, err)
	if err != nil {
		return Response{}, err
	}
	resp.Cached = cached
	if st, ok := s.acct.Status(ds.Name); ok {
		resp.RemainingBudget = st.Remaining
	}
	return resp, nil
}

// settleErr refunds a pre-held reservation (if any) before returning err:
// used on the paths that fail before the release cache takes over.
func settleErr(pre *Reservation, err error) error {
	if pre != nil {
		pre.Refund()
	}
	return err
}
