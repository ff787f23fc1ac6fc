package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recmech/internal/lp"
	"recmech/internal/metrics"
	"recmech/internal/plan"
	"recmech/internal/pool"
	"recmech/internal/sfcache"
	"recmech/internal/store"
	"recmech/internal/trace"
)

// serviceMetrics is every instrument of one Service, held in struct fields
// so hot paths pay a single atomic operation per event. Construct with
// newServiceMetrics, then bind(s) once the Service is assembled (the
// scrape-time gauges close over it) and bindStore when a durable store is
// attached.
//
// Naming scheme (see DESIGN.md "Observability"): every family is
// recmech_<subsystem>_<what>[_total|_seconds], with low-cardinality fixed
// labels (source, reason, outcome, cache, event, code) on static
// instruments and the dataset name only on scrape-time sample families,
// whose label sets follow the registry.
type serviceMetrics struct {
	reg   *metrics.Registry
	start time.Time

	// now is the clock behind the sliding spend window — injectable so the
	// burn-rate decay is testable without sleeping through real minutes.
	now func() time.Time
	// window is Config.SpendRateWindow: the width of every per-dataset
	// sliding ε window (and so the horizon of the burn-rate/TTL forecasts).
	window time.Duration

	// Query outcomes by source: a fresh compile, a plan-cache hit paying
	// only the release, or a replay (release cache or coalesced flight).
	qFresh, qPlanHit, qReplay       *metrics.Counter
	durFresh, durPlanHit, durReplay *metrics.Histogram
	queueWait                       *metrics.Histogram

	failCanceled, failBudget, failBadRequest, failOther *metrics.Counter

	jobsSubmitted, jobsDone, jobsFailed, jobsCanceled, jobsRejected *metrics.Counter

	httpDur *metrics.Histogram
	// httpCodes is a copy-on-write map so the per-request read path is
	// one atomic load; httpMu serializes minting a counter for a status
	// code seen for the first time.
	httpMu    sync.Mutex
	httpCodes atomic.Pointer[map[int]*metrics.Counter]

	dsMu  sync.RWMutex
	perDS map[string]*dsCounters

	// Accuracy telemetry, keyed by workload family (the fixed query kinds,
	// minted at construction so the per-release observe is two read-only map
	// lookups): the Theorem 1 predicted error bound next to the Laplace
	// noise magnitude actually drawn. Predicted should dominate drawn —
	// a family whose draws routinely exceed its bound is a bug report.
	accPredicted map[string]*metrics.Histogram
	accNoise     map[string]*metrics.Histogram

	// Estimator-tier telemetry: releases by compile mode, and the sampled
	// contracts' relative error — a sampled tier whose contract error drifts
	// up means the sample budget no longer fits the data.
	estSampled, estExact *metrics.Counter
	estRelErr            *metrics.Histogram

	// appends counts accepted dataset appends (PATCH /v1/datasets/{name});
	// the recmech_delta_compile_* families that describe what those appends'
	// re-warms reused are process-global in internal/plan, bound at scrape
	// time in bind.
	appends *metrics.Counter

	// runtime caches MemStats snapshots for the runtime-health gauges.
	runtime runtimeSampler
}

// dsCounters are the per-dataset counters behind GET
// /v1/datasets/{name}/stats and the recmech_dataset_* sample families.
// They are in-memory and per-boot (unlike the ε ledger, which is durable):
// rates derived from them are rates since process start.
type dsCounters struct {
	fresh, replayed, failed, rejected atomic.Uint64
	epsCommitted                      metrics.Gauge // monotone: ε committed by queries since boot
	// fam attributes committed ε by workload family. Unlike the counters
	// above it is seeded at boot from the WAL's release records (see
	// attributeSpend), so in durable mode it survives restarts.
	fam famSpend
	// window holds the trailing SpendRateWindow of ε commits, behind the
	// burn-rate and budget-TTL forecasts. Deliberately NOT seeded at boot:
	// historic spend is not recent spend.
	window *epsWindow
}

func newServiceMetrics(window time.Duration) *serviceMetrics {
	if window <= 0 {
		window = time.Hour
	}
	reg := metrics.NewRegistry()
	m := &serviceMetrics{
		reg:    reg,
		start:  time.Now(),
		now:    time.Now,
		window: window,
		perDS:  make(map[string]*dsCounters),
	}
	const qHelp = "DP queries answered, by how the answer was produced"
	m.qFresh = reg.Counter("recmech_queries_total", qHelp, metrics.L("source", "fresh"))
	m.qPlanHit = reg.Counter("recmech_queries_total", qHelp, metrics.L("source", "plan_hit"))
	m.qReplay = reg.Counter("recmech_queries_total", qHelp, metrics.L("source", "replay"))
	const dHelp = "DP query latency in seconds, by answer source"
	buckets := metrics.DefBuckets()
	m.durFresh = reg.Histogram("recmech_query_duration_seconds", dHelp, buckets, metrics.L("source", "fresh"))
	m.durPlanHit = reg.Histogram("recmech_query_duration_seconds", dHelp, buckets, metrics.L("source", "plan_hit"))
	m.durReplay = reg.Histogram("recmech_query_duration_seconds", dHelp, buckets, metrics.L("source", "replay"))
	m.queueWait = reg.Histogram("recmech_queue_wait_seconds",
		"Time spent waiting for a worker slot before executing", buckets)
	const fHelp = "DP queries that returned no answer, by reason"
	m.failCanceled = reg.Counter("recmech_query_failures_total", fHelp, metrics.L("reason", "canceled"))
	m.failBudget = reg.Counter("recmech_query_failures_total", fHelp, metrics.L("reason", "budget_exhausted"))
	m.failBadRequest = reg.Counter("recmech_query_failures_total", fHelp, metrics.L("reason", "bad_request"))
	m.failOther = reg.Counter("recmech_query_failures_total", fHelp, metrics.L("reason", "other"))
	const jHelp = "Async batch jobs, by lifecycle outcome"
	m.jobsSubmitted = reg.Counter("recmech_jobs_total", jHelp, metrics.L("outcome", "submitted"))
	m.jobsDone = reg.Counter("recmech_jobs_total", jHelp, metrics.L("outcome", "done"))
	m.jobsFailed = reg.Counter("recmech_jobs_total", jHelp, metrics.L("outcome", "failed"))
	m.jobsCanceled = reg.Counter("recmech_jobs_total", jHelp, metrics.L("outcome", "canceled"))
	m.jobsRejected = reg.Counter("recmech_jobs_total", jHelp, metrics.L("outcome", "rejected"))
	m.httpDur = reg.Histogram("recmech_http_request_duration_seconds",
		"HTTP request latency in seconds, all endpoints", buckets)
	// Error-magnitude buckets for the accuracy histograms: additive error
	// on subgraph counts spans roughly unit scale (sparse graphs at
	// generous ε) to 1e5 (node privacy at tight ε), geometric 1-2.5-5.
	errBuckets := []float64{
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
		250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
	}
	m.accPredicted = make(map[string]*metrics.Histogram, len(spendFamilies))
	m.accNoise = make(map[string]*metrics.Histogram, len(spendFamilies))
	for _, kind := range spendFamilies {
		m.accPredicted[kind] = reg.Histogram("recmech_accuracy_predicted_error",
			"Theorem 1 predicted error bound per release, by workload family",
			errBuckets, metrics.L("family", kind))
		m.accNoise[kind] = reg.Histogram("recmech_accuracy_noise_magnitude",
			"Laplace noise magnitude actually drawn per release, by workload family",
			errBuckets, metrics.L("family", kind))
	}
	const eHelp = "Releases drawn, by compile tier"
	m.estSampled = reg.Counter("recmech_estimator_releases_total", eHelp, metrics.L("mode", "sampled"))
	m.estExact = reg.Counter("recmech_estimator_releases_total", eHelp, metrics.L("mode", "exact"))
	// Relative-error buckets: the estimator contract is dimensionless, and a
	// healthy sampled tier sits well under 1.
	m.estRelErr = reg.Histogram("recmech_estimator_contract_rel_error",
		"Estimator contract relative error per sampled release",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	m.appends = reg.Counter("recmech_dataset_appends_total",
		"Dataset deltas accepted (PATCH /v1/datasets/{name})")
	return m
}

// observeEstimator records one sampled-tier release and its contract's
// relative error. Exact releases increment estExact directly.
func (m *serviceMetrics) observeEstimator(relError float64) {
	m.estSampled.Inc()
	m.estRelErr.Observe(relError)
}

// observeAccuracy records one release's predicted Theorem 1 bound next to
// the noise magnitude it actually drew. Unknown kinds (none today — the
// request validator pins the set) are dropped rather than minting series.
func (m *serviceMetrics) observeAccuracy(kind string, predicted, noiseMag float64) {
	if h := m.accPredicted[kind]; h != nil {
		h.Observe(predicted)
	}
	if h := m.accNoise[kind]; h != nil {
		h.Observe(noiseMag)
	}
}

// attributeSpend credits committed ε to a dataset's per-family attribution
// without touching the sliding window or the since-boot counters — the boot
// path: NewWithStore replays the WAL's retained release records through
// here so the attribution is restart-identical to the journal.
func (m *serviceMetrics) attributeSpend(dataset, kind string, epsilon float64) {
	if c := m.ds(dataset); c != nil {
		c.fam.add(kind, epsilon)
	}
}

// bind registers the scrape-time instruments that read live service state.
// Call exactly once, after the Service struct is fully assembled.
func (m *serviceMetrics) bind(s *Service) {
	reg := m.reg
	reg.GaugeFunc("recmech_uptime_seconds", "Seconds since the service was constructed",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.GaugeFunc("recmech_datasets", "Registered datasets",
		func() float64 { return float64(len(s.reg.List())) })
	reg.GaugeFunc("recmech_workers", "Size of the executor worker pool",
		func() float64 { return float64(cap(s.slots)) })
	reg.GaugeFunc("recmech_workers_busy", "Worker slots currently executing or preparing a query",
		func() float64 { return float64(cap(s.slots) - len(s.slots)) })
	reg.GaugeFunc("recmech_jobs_active", "Jobs currently queued or running",
		func() float64 { return float64(s.jobs.activeCount()) })

	// The shared compile pool: every fresh compile's enumeration shards and
	// ladder probe waves borrow workers here, so pool pressure is the
	// leading indicator that fresh-query latency is about to stop scaling.
	pl := s.compilePool
	reg.GaugeFunc("recmech_compile_pool_workers", "Size of the shared compile pool (GOMAXPROCS)",
		func() float64 { return float64(pl.Size()) })
	reg.GaugeFunc("recmech_compile_pool_busy", "Compile-pool workers currently borrowed by fan-outs",
		func() float64 { return float64(pl.Stats().Busy) })
	reg.GaugeFunc("recmech_compile_pool_tasks_inflight", "Compile tasks executing right now, caller goroutines included",
		func() float64 { return float64(pl.Stats().Tasks) })
	reg.GaugeFunc("recmech_compile_pool_fanouts_inflight", "Fan-outs (enumeration or ladder waves) in progress",
		func() float64 { return float64(pl.Stats().Fanouts) })
	reg.CounterFunc("recmech_compile_pool_tasks_total", "Compile tasks executed since start",
		func() uint64 { return pl.Stats().TasksTotal })
	reg.CounterFunc("recmech_compile_pool_fanouts_total", "Fan-outs submitted since start",
		func() uint64 { return pl.Stats().FanoutsTotal })
	reg.CounterFunc("recmech_compile_pool_fanouts_inline_total", "Fan-outs that found no free worker and ran entirely on their caller",
		func() uint64 { return pl.Stats().InlineTotal })

	// Budget accountant counters live on the Accountant (they are part of
	// the ledger protocol), read here at scrape time.
	const bHelp = "Budget reservations attempted, by result"
	reg.CounterFunc("recmech_budget_reservations_total", bHelp,
		func() uint64 { r, _, _, _ := s.acct.Counters(); return r }, metrics.L("result", "ok"))
	reg.CounterFunc("recmech_budget_reservations_total", bHelp,
		func() uint64 { _, rej, _, _ := s.acct.Counters(); return rej }, metrics.L("result", "rejected"))
	reg.CounterFunc("recmech_budget_commits_total", "Reservations committed (ε spent for good)",
		func() uint64 { _, _, c, _ := s.acct.Counters(); return c })
	reg.CounterFunc("recmech_budget_refunds_total", "Reservations refunded (no ε consumed)",
		func() uint64 { _, _, _, r := s.acct.Counters(); return r })

	// Per-dataset ε ledgers: label sets follow the accountant, so these are
	// sample families computed at scrape time.
	budgetFamily := func(name, help string, field func(BudgetStatus) float64) {
		reg.SampleFunc(name, help, "gauge", func() []metrics.Sample {
			sts := s.acct.StatusAll()
			out := make([]metrics.Sample, len(sts))
			for i, st := range sts {
				out[i] = metrics.Sample{Labels: []metrics.Label{metrics.L("dataset", st.Dataset)}, Value: field(st)}
			}
			return out
		})
	}
	budgetFamily("recmech_budget_epsilon_granted", "Total ε granted per dataset",
		func(st BudgetStatus) float64 { return st.Total })
	budgetFamily("recmech_budget_epsilon_spent", "ε spent per dataset (durable across restarts in durable mode)",
		func(st BudgetStatus) float64 { return st.Spent })
	budgetFamily("recmech_budget_epsilon_remaining", "Unreserved ε remaining per dataset",
		func(st BudgetStatus) float64 { return st.Remaining })

	// Cache event counters for the two sfcache instances.
	caches := func() map[string]*sfcacheStats {
		return map[string]*sfcacheStats{
			"release": {len: s.cache.Len, stats: s.cache.Stats},
			"plan":    {len: s.plans.Len, stats: s.plans.Stats},
		}
	}
	reg.SampleFunc("recmech_cache_events_total",
		"Cache lookups and maintenance events, by cache and event kind", "counter",
		func() []metrics.Sample {
			var out []metrics.Sample
			for name, c := range caches() {
				st := c.stats()
				for _, ev := range []struct {
					kind string
					v    uint64
				}{{"hit", st.Hits}, {"miss", st.Misses}, {"coalesced", st.Coalesced}, {"eviction", st.Evictions}} {
					out = append(out, metrics.Sample{
						Labels: []metrics.Label{metrics.L("cache", name), metrics.L("event", ev.kind)},
						Value:  float64(ev.v),
					})
				}
			}
			return out
		})
	reg.SampleFunc("recmech_cache_entries", "Entries held (completed and in flight), by cache", "gauge",
		func() []metrics.Sample {
			var out []metrics.Sample
			for name, c := range caches() {
				out = append(out, metrics.Sample{Labels: []metrics.Label{metrics.L("cache", name)}, Value: float64(c.len())})
			}
			return out
		})

	// Per-dataset query counters (in-memory, per boot).
	reg.SampleFunc("recmech_dataset_queries_total", "Queries per dataset, by outcome", "counter",
		func() []metrics.Sample {
			var out []metrics.Sample
			m.dsMu.RLock()
			defer m.dsMu.RUnlock()
			for name, c := range m.perDS {
				lbl := func(outcome string) []metrics.Label {
					return []metrics.Label{metrics.L("dataset", name), metrics.L("outcome", outcome)}
				}
				out = append(out,
					metrics.Sample{Labels: lbl("fresh"), Value: float64(c.fresh.Load())},
					metrics.Sample{Labels: lbl("replayed"), Value: float64(c.replayed.Load())},
					metrics.Sample{Labels: lbl("failed"), Value: float64(c.failed.Load())},
					metrics.Sample{Labels: lbl("rejected"), Value: float64(c.rejected.Load())})
			}
			return out
		})
	reg.SampleFunc("recmech_dataset_epsilon_committed",
		"ε committed by queries since process start, per dataset", "counter",
		func() []metrics.Sample {
			var out []metrics.Sample
			m.dsMu.RLock()
			defer m.dsMu.RUnlock()
			for name, c := range m.perDS {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{metrics.L("dataset", name)},
					Value:  c.epsCommitted.Value(),
				})
			}
			return out
		})
	reg.SampleFunc("recmech_dataset_epsilon_by_family",
		"ε attributed per dataset and workload family (WAL-seeded in durable mode)", "counter",
		func() []metrics.Sample {
			var out []metrics.Sample
			m.dsMu.RLock()
			defer m.dsMu.RUnlock()
			for name, c := range m.perDS {
				for _, kind := range spendFamilies {
					out = append(out, metrics.Sample{
						Labels: []metrics.Label{metrics.L("dataset", name), metrics.L("family", kind)},
						Value:  c.fam.value(kind),
					})
				}
			}
			return out
		})
	reg.SampleFunc("recmech_budget_burn_eps_per_hour",
		"ε committed per hour over the trailing spend window, per dataset", "gauge",
		func() []metrics.Sample {
			now := m.now()
			var out []metrics.Sample
			m.dsMu.RLock()
			defer m.dsMu.RUnlock()
			for name, c := range m.perDS {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{metrics.L("dataset", name)},
					Value:  c.window.ratePerHour(now),
				})
			}
			return out
		})
	reg.SampleFunc("recmech_budget_ttl_seconds",
		"Projected seconds until the ε budget is exhausted at the current burn rate (+Inf when idle)", "gauge",
		func() []metrics.Sample {
			now := m.now()
			sts := s.acct.StatusAll()
			out := make([]metrics.Sample, 0, len(sts))
			m.dsMu.RLock()
			defer m.dsMu.RUnlock()
			for _, st := range sts {
				c := m.perDS[st.Dataset]
				if c == nil {
					continue // ledger for a dataset deleted mid-scrape
				}
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{metrics.L("dataset", st.Dataset)},
					Value:  ttlSeconds(st.Remaining, c.window.sum(now), m.window),
				})
			}
			return out
		})

	// LP solver counters are process-global (see internal/lp): they
	// aggregate every solver user in the process, not just this service.
	reg.CounterFunc("recmech_lp_solves_total", "LP solves started, process-wide",
		func() uint64 { return lp.ReadCounters().Solves })
	reg.CounterFunc("recmech_lp_pivots_total", "Simplex iterations performed, process-wide",
		func() uint64 { return lp.ReadCounters().Pivots })
	reg.CounterFunc("recmech_lp_interrupts_total", "LP solves aborted by cooperative interrupt, process-wide",
		func() uint64 { return lp.ReadCounters().Interrupts })
	reg.CounterFunc("recmech_lp_warm_attempts_total", "LP solves that attempted a warm-start seed, process-wide",
		func() uint64 { return lp.ReadCounters().WarmAttempts })
	reg.CounterFunc("recmech_lp_warm_applied_total", "Warm-start seeds certified and applied, process-wide",
		func() uint64 { return lp.ReadCounters().WarmApplied })
	reg.CounterFunc("recmech_lp_warm_discarded_total", "Warm-start seeds discarded (solve fell back to cold), process-wide",
		func() uint64 { return lp.ReadCounters().WarmDiscarded })

	// Delta-compile counters are process-global (see internal/plan): every
	// plan.Advance in the process lands here, which for this binary means the
	// serving layer's post-append re-warm passes. Reused/encoded tuples and
	// dirty/total units are the incremental path's leverage: reused ≫ encoded
	// (and dirty ≪ total) is delta compiles paying off; a rising fallback
	// share means appends stopped matching the incremental preconditions.
	reg.CounterFunc("recmech_delta_compile_advances_total", "Plans advanced incrementally from a predecessor generation, process-wide",
		func() uint64 { return plan.ReadDeltaCounters().Advances })
	reg.CounterFunc("recmech_delta_compile_fallbacks_total", "Advance calls that fell back to a full recompile, process-wide",
		func() uint64 { return plan.ReadDeltaCounters().Fallbacks })
	reg.CounterFunc("recmech_delta_compile_identical_total", "Advances whose delta changed nothing the workload observes, process-wide",
		func() uint64 { return plan.ReadDeltaCounters().Identical })
	reg.CounterFunc("recmech_delta_compile_tuples_reused_total", "Encoded tuples adopted verbatim from the predecessor plan, process-wide",
		func() uint64 { return plan.ReadDeltaCounters().TuplesReused })
	reg.CounterFunc("recmech_delta_compile_tuples_encoded_total", "Tuples re-encoded because their enumeration unit was dirty, process-wide",
		func() uint64 { return plan.ReadDeltaCounters().TuplesEncoded })
	reg.CounterFunc("recmech_delta_compile_values_carried_total", "Solved H/G values carried over on identical generations, process-wide",
		func() uint64 { return plan.ReadDeltaCounters().ValuesCarried })
	reg.CounterFunc("recmech_delta_compile_units_total", "Enumeration units considered by advances, process-wide",
		func() uint64 { return plan.ReadDeltaCounters().UnitsTotal })
	reg.CounterFunc("recmech_delta_compile_units_dirty_total", "Enumeration units re-enumerated by advances, process-wide",
		func() uint64 { return plan.ReadDeltaCounters().UnitsDirty })

	// Tracing counters, from the span recorder (see internal/trace).
	reg.CounterFunc("recmech_traces_total", "Traces recorded (fresh compiles, job items, sampled warm queries)",
		func() uint64 { return s.tr.TracerStats().Finished })
	reg.CounterFunc("recmech_trace_spans_dropped_total", "Spans dropped because a trace hit its span bound",
		func() uint64 { return s.tr.TracerStats().SpansDropped })
	reg.GaugeFunc("recmech_traces_retained", "Completed traces currently held in the ring behind GET /v1/traces",
		func() float64 { return float64(s.tr.TracerStats().Retained) })

	// Runtime health, for the first minute of any incident: is the process
	// leaking goroutines, growing the heap, or pausing in GC? ReadMemStats
	// stops the world, so one sampler snapshot is shared by the memory
	// gauges and refreshed at most once a second however often /metrics and
	// /v1/stats are scraped.
	rs := &m.runtime
	reg.GaugeFunc("recmech_goroutines", "Goroutines currently live in the process",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("recmech_heap_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc)",
		func() float64 { return float64(rs.sample().HeapAlloc) })
	reg.GaugeFunc("recmech_gc_pause_seconds", "Duration of the most recent GC stop-the-world pause",
		func() float64 { return rs.lastPause().Seconds() })
}

// runtimeSampler caches one runtime.MemStats snapshot for a short TTL:
// ReadMemStats stops the world, and several gauges (plus /v1/stats) read it
// on every scrape — once a second is plenty for health monitoring.
type runtimeSampler struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

func (r *runtimeSampler) sample() runtime.MemStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if time.Since(r.at) > time.Second || r.at.IsZero() {
		runtime.ReadMemStats(&r.ms)
		r.at = time.Now()
	}
	return r.ms
}

// lastPause returns the most recent GC pause (PauseNs is a ring indexed by
// completed-GC count), or 0 before the first collection.
func (r *runtimeSampler) lastPause() time.Duration {
	ms := r.sample()
	if ms.NumGC == 0 {
		return 0
	}
	return time.Duration(ms.PauseNs[(ms.NumGC+255)%256])
}

type sfcacheStats struct {
	len   func() int
	stats func() sfcache.Stats
}

// bindStore registers the durable store's instruments. Call at most once.
func (m *serviceMetrics) bindStore(st *store.Store) {
	m.reg.CounterFunc("recmech_store_wal_appends_total", "Durably acknowledged WAL appends",
		func() uint64 { return st.Metrics().WALAppends })
	m.reg.CounterFunc("recmech_store_wal_bytes_total", "Bytes appended to the WAL, framing included",
		func() uint64 { return st.Metrics().WALBytes })
	m.reg.CounterFunc("recmech_store_compactions_total", "Completed snapshot compactions",
		func() uint64 { return st.Metrics().Compactions })
	m.reg.CounterFunc("recmech_store_compaction_errors_total", "Failed snapshot compactions (WAL chain stays recoverable)",
		func() uint64 { return st.Metrics().CompactionErrors })
	m.reg.RegisterHistogram("recmech_store_fsync_seconds",
		"WAL fsync latency in seconds; every budget transition pays one", st.FsyncHistogram())
}

// dropDataset discards a deleted dataset's counter block, so scrapes stop
// emitting its series and a later re-creation under the same name starts
// from zero instead of inheriting the old data's counts. Blocks are
// minted only at registration (ensureDS), never by traffic, so a query
// completing after the delete cannot resurrect the series.
func (m *serviceMetrics) dropDataset(name string) {
	m.dsMu.Lock()
	delete(m.perDS, name)
	m.dsMu.Unlock()
}

// ensureDS mints the per-dataset counter block at registration time (a
// re-registration keeps the existing block: same name, same data
// lineage until a delete intervenes).
func (m *serviceMetrics) ensureDS(name string) {
	m.dsMu.Lock()
	if _, ok := m.perDS[name]; !ok {
		m.perDS[name] = &dsCounters{window: newEpsWindow(m.window)}
	}
	m.dsMu.Unlock()
}

// ds returns the per-dataset counter block, or nil for a name that is not
// currently registered (e.g. a query racing a delete) — callers skip
// recording rather than minting a block for a gone dataset.
func (m *serviceMetrics) ds(name string) *dsCounters {
	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	return m.perDS[name]
}

// recordQuery tallies one completed (or failed) pass through Service.do.
// dsKnown guards the per-dataset counters: an unknown dataset name must
// not mint counter entries (that would let unauthenticated requests grow
// the metric space without bound). kind attributes a successful fresh
// release's ε to its workload family and the sliding spend window.
func (m *serviceMetrics) recordQuery(dataset, kind string, dsKnown, cached, planHit bool, epsilon float64, start time.Time, err error) {
	elapsed := time.Since(start)
	var c *dsCounters
	if dsKnown {
		c = m.ds(dataset) // may still be nil: a query racing a delete
	}
	switch {
	case err == nil && cached:
		m.qReplay.Inc()
		m.durReplay.ObserveDuration(elapsed)
		if c != nil {
			c.replayed.Add(1)
		}
	case err == nil:
		if planHit {
			m.qPlanHit.Inc()
			m.durPlanHit.ObserveDuration(elapsed)
		} else {
			m.qFresh.Inc()
			m.durFresh.ObserveDuration(elapsed)
		}
		if c != nil {
			c.fresh.Add(1)
			c.epsCommitted.Add(epsilon)
			c.fam.add(kind, epsilon)
			c.window.add(m.now(), epsilon)
		}
	case errors.Is(err, ErrBudgetExhausted):
		m.failBudget.Inc()
		if c != nil {
			c.rejected.Add(1)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.failCanceled.Inc()
		if c != nil {
			c.failed.Add(1)
		}
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrUnknownDataset):
		m.failBadRequest.Inc()
	default:
		m.failOther.Inc()
		if c != nil {
			c.failed.Add(1)
		}
	}
}

// httpCode returns (creating if needed) the per-status-code request
// counter. Status codes are a small fixed population, so lazily minting a
// counter per observed code keeps registration out of the request path
// without unbounded label growth; the map is copy-on-write so the common
// already-minted lookup is a single atomic load, not a lock.
func (m *serviceMetrics) httpCode(code int) *metrics.Counter {
	if mp := m.httpCodes.Load(); mp != nil {
		if c, ok := (*mp)[code]; ok {
			return c
		}
	}
	m.httpMu.Lock()
	defer m.httpMu.Unlock()
	old := m.httpCodes.Load()
	if old != nil {
		if c, ok := (*old)[code]; ok {
			return c
		}
	}
	next := make(map[int]*metrics.Counter, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	c := m.reg.Counter("recmech_http_requests_total", "HTTP requests served, by status code",
		metrics.L("code", itoa3(code)))
	next[code] = c
	m.httpCodes.Store(&next)
	return c
}

// itoa3 formats a 3-digit HTTP status without strconv in the request path.
func itoa3(code int) string {
	if code < 100 || code > 999 {
		code = 999
	}
	return string([]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)})
}

// MetricsRegistry exposes the service's metrics registry, served by
// NewHandler at GET /metrics and usable directly by embedders.
func (s *Service) MetricsRegistry() *metrics.Registry { return s.met.reg }

// ServiceStats is the GET /v1/stats snapshot: one JSON document with the
// service-wide counters an operator reaches for first. All counters are
// since process start (the durable ε ledgers live in BudgetStatus, not
// here); see /metrics for the full instrument set including histograms.
type ServiceStats struct {
	UptimeSeconds float64               `json:"uptimeSeconds"`
	Datasets      int                   `json:"datasets"`
	Queries       QueryStats            `json:"queries"`
	Jobs          JobStats              `json:"jobs"`
	Caches        map[string]CacheStats `json:"caches"`
	Workers       WorkerStats           `json:"workers"`
	// CompilePool snapshots the shared compile pool (see internal/pool):
	// fixed size, instantaneous borrow/task/fan-out gauges, and monotone
	// totals. A high InlineTotal rate means fresh compiles routinely find
	// the pool starved and fall back to single-threaded analysis — add
	// cores (the pool is GOMAXPROCS workers).
	CompilePool pool.Stats   `json:"compilePool"`
	Compiles    CompileStats `json:"compiles"`
	Traces      trace.Stats  `json:"traces"`
	// LP snapshots the process-wide LP solver counters. The warm trio
	// satisfies WarmAttempts = WarmApplied + WarmDiscarded; a falling
	// applied/attempts ratio is the first sign warm starting has stopped
	// paying.
	LP      lp.Counters  `json:"lp"`
	Runtime RuntimeStats `json:"runtime"`
	Store   *StoreStats  `json:"store,omitempty"`
	// Accuracy aggregates the per-release error telemetry by workload
	// family; families with no releases yet are omitted. This is an
	// operator surface — present regardless of Config.ExposeAccuracy.
	Accuracy map[string]AccuracyFamilyStats `json:"accuracy,omitempty"`
	// Estimator aggregates the compile-tier split and the sampled
	// contracts' error; omitted until the first release. Operator surface,
	// present regardless of Config.ExposeAccuracy.
	Estimator *EstimatorStats `json:"estimator,omitempty"`
	// DeltaCompiles aggregates the dataset-append/incremental-compile path;
	// omitted until the first append or advance. Counters other than Appends
	// are process-wide (see internal/plan).
	DeltaCompiles *DeltaCompileStats `json:"deltaCompiles,omitempty"`
}

// DeltaCompileStats is the /v1/stats "deltaCompiles" section: how many
// dataset appends were accepted and what the resulting plan advances reused
// versus recomputed (the recmech_delta_compile_* families, inlined). Healthy
// delta traffic shows TuplesReused ≫ TuplesEncoded and UnitsDirty ≪
// UnitsTotal; Fallbacks counts advances that gave up and recompiled.
type DeltaCompileStats struct {
	Appends uint64 `json:"appends"`
	plan.DeltaCounters
}

// EstimatorStats summarizes the estimator tier since boot: how many releases
// each compile mode served, and the mean contract relative error across the
// sampled ones (the full distribution is recmech_estimator_contract_rel_error
// on /metrics).
type EstimatorStats struct {
	SampledReleases uint64 `json:"sampledReleases"`
	ExactReleases   uint64 `json:"exactReleases"`
	// MeanContractRelError averages the sampled releases' contract relative
	// error; 0 with no sampled releases yet.
	MeanContractRelError float64 `json:"meanContractRelError,omitempty"`
}

// AccuracyFamilyStats summarizes one workload family's releases since boot:
// the mean Theorem 1 predicted bound next to the mean noise magnitude
// actually drawn (full distributions are the recmech_accuracy_* histograms
// on /metrics). Drawn noise running anywhere near the predicted bound
// means the bound is no longer conservative for this workload — investigate.
type AccuracyFamilyStats struct {
	Releases           uint64  `json:"releases"`
	MeanPredictedError float64 `json:"meanPredictedError"`
	MeanNoiseMagnitude float64 `json:"meanNoiseMagnitude"`
}

// RuntimeStats snapshots process health: the same facts as the
// recmech_goroutines / recmech_heap_bytes / recmech_gc_pause_seconds
// gauges, inlined into /v1/stats so one curl answers "is the process
// itself sick?".
type RuntimeStats struct {
	Goroutines       int     `json:"goroutines"`
	HeapBytes        uint64  `json:"heapBytes"`
	GCPauseSeconds   float64 `json:"gcPauseSeconds"` // most recent stop-the-world pause
	GCCycles         uint32  `json:"gcCycles"`
	GOMAXPROCSetting int     `json:"gomaxprocs"`
}

// QueryStats counts query outcomes since process start.
type QueryStats struct {
	Fresh          uint64 `json:"fresh"`          // compiled and released
	PlanHit        uint64 `json:"planHit"`        // released over a cached plan
	Replayed       uint64 `json:"replayed"`       // release cache or coalesced flight; zero ε
	Canceled       uint64 `json:"canceled"`       // caller hung up; ε refunded
	BudgetRejected uint64 `json:"budgetRejected"` // typed 429; zero ε
	BadRequest     uint64 `json:"badRequest"`
	Errors         uint64 `json:"errors"`
}

// JobStats counts async job outcomes since process start.
type JobStats struct {
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"` // typed 429 too_many_jobs
	Active    int    `json:"active"`
}

// CacheStats snapshots one cache's counters plus its derived hit ratio,
// (hits + coalesced) / lookups — 0 when no lookups yet. Counters are
// classified at lookup time (see sfcache.Stats), so coalesced waiters of
// a flight that ultimately failed still count as shared.
type CacheStats struct {
	Entries int `json:"entries"`
	sfcache.Stats
	HitRatio float64 `json:"hitRatio"`
}

// WorkerStats snapshots the executor pool.
type WorkerStats struct {
	Total int `json:"total"`
	Busy  int `json:"busy"`
}

// StoreStats snapshots the durable store counters (durable mode only),
// with the WAL fsync histogram's count and sum beside them.
type StoreStats struct {
	store.Metrics
	FsyncCount      uint64  `json:"fsyncCount"`
	FsyncSecondsSum float64 `json:"fsyncSecondsSum"`
}

func cacheStats(entries int, st sfcache.Stats) CacheStats {
	cs := CacheStats{Entries: entries, Stats: st}
	if lookups := st.Hits + st.Misses + st.Coalesced; lookups > 0 {
		cs.HitRatio = float64(st.Hits+st.Coalesced) / float64(lookups)
	}
	return cs
}

// Stats snapshots the service-wide counters (GET /v1/stats).
func (s *Service) Stats() ServiceStats {
	m := s.met
	st := ServiceStats{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Datasets:      len(s.reg.List()),
		Queries: QueryStats{
			Fresh:          m.qFresh.Value(),
			PlanHit:        m.qPlanHit.Value(),
			Replayed:       m.qReplay.Value(),
			Canceled:       m.failCanceled.Value(),
			BudgetRejected: m.failBudget.Value(),
			BadRequest:     m.failBadRequest.Value(),
			Errors:         m.failOther.Value(),
		},
		Jobs: JobStats{
			Submitted: m.jobsSubmitted.Value(),
			Done:      m.jobsDone.Value(),
			Failed:    m.jobsFailed.Value(),
			Canceled:  m.jobsCanceled.Value(),
			Rejected:  m.jobsRejected.Value(),
			Active:    s.jobs.activeCount(),
		},
		Caches: map[string]CacheStats{
			"release": cacheStats(s.cache.Len(), s.cache.Stats()),
			"plan":    cacheStats(s.plans.Len(), s.plans.Stats()),
		},
		Workers:     WorkerStats{Total: cap(s.slots), Busy: cap(s.slots) - len(s.slots)},
		CompilePool: s.compilePool.Stats(),
		Compiles:    s.compiles.stats(),
		Traces:      s.tr.TracerStats(),
		LP:          lp.ReadCounters(),
	}
	ms := m.runtime.sample()
	st.Runtime = RuntimeStats{
		Goroutines:       runtime.NumGoroutine(),
		HeapBytes:        ms.HeapAlloc,
		GCPauseSeconds:   m.runtime.lastPause().Seconds(),
		GCCycles:         ms.NumGC,
		GOMAXPROCSetting: runtime.GOMAXPROCS(0),
	}
	for _, kind := range spendFamilies {
		h := m.accPredicted[kind]
		n := h.Count()
		if n == 0 {
			continue
		}
		if st.Accuracy == nil {
			st.Accuracy = make(map[string]AccuracyFamilyStats, len(spendFamilies))
		}
		fs := AccuracyFamilyStats{
			Releases:           n,
			MeanPredictedError: h.Sum() / float64(n),
		}
		if hn := m.accNoise[kind]; hn.Count() > 0 {
			fs.MeanNoiseMagnitude = hn.Sum() / float64(hn.Count())
		}
		st.Accuracy[kind] = fs
	}
	if sampled, exact := m.estSampled.Value(), m.estExact.Value(); sampled+exact > 0 {
		es := &EstimatorStats{SampledReleases: sampled, ExactReleases: exact}
		if n := m.estRelErr.Count(); n > 0 {
			es.MeanContractRelError = m.estRelErr.Sum() / float64(n)
		}
		st.Estimator = es
	}
	if dc := plan.ReadDeltaCounters(); m.appends.Value() > 0 || dc.Advances+dc.Fallbacks > 0 {
		st.DeltaCompiles = &DeltaCompileStats{Appends: m.appends.Value(), DeltaCounters: dc}
	}
	if s.store != nil {
		h := s.store.FsyncHistogram()
		st.Store = &StoreStats{Metrics: s.store.Metrics(), FsyncCount: h.Count(), FsyncSecondsSum: h.Sum()}
	}
	return st
}

// DatasetStats is the GET /v1/datasets/{name}/stats snapshot: per-dataset
// query counts and ε spend trajectory. Counters are since process start;
// the Budget ledger is durable in durable mode.
type DatasetStats struct {
	Dataset string `json:"dataset"`
	// Query outcomes against this dataset since process start. Fresh
	// releases spent ε; replays (cache or coalesced) spent none.
	Fresh    uint64 `json:"fresh"`
	Replayed uint64 `json:"replayed"`
	Failed   uint64 `json:"failed"`
	Rejected uint64 `json:"rejected"`
	// CacheHitRatio is replayed / (fresh + replayed); 0 with no answers.
	CacheHitRatio float64 `json:"cacheHitRatio"`
	// EpsilonCommitted is ε spent by queries since process start.
	// EpsilonPerHour is the burn rate over the trailing spend window of
	// SpendWindowSeconds (not since boot — a freshly restarted process no
	// longer reports an inflated rate from a short uptime denominator).
	EpsilonCommitted   float64 `json:"epsilonCommitted"`
	EpsilonPerHour     float64 `json:"epsilonPerHour"`
	SpendWindowSeconds float64 `json:"spendWindowSeconds"`
	// BudgetTTLSeconds projects seconds until the ledger's remaining ε is
	// exhausted at the window's burn rate. Omitted when nothing was spent
	// in the window (the projection would be +Inf, which JSON cannot
	// carry); 0 means the budget is already gone.
	BudgetTTLSeconds *float64 `json:"budgetTtlSeconds,omitempty"`
	// SpendByFamily attributes committed ε by workload family (sql,
	// triangles, kstars, ktriangles, pattern); families never queried are
	// omitted. In durable mode it is seeded at boot from the WAL's retained
	// release records, so it survives restarts — a lower bound when the
	// release cache has pruned old records (the Budget ledger stays
	// authoritative for totals).
	SpendByFamily map[string]float64 `json:"spendByFamily,omitempty"`
	// Budget is the dataset's ε ledger (durable in durable mode).
	Budget *BudgetStatus `json:"budget,omitempty"`
}

// DatasetStats snapshots one dataset's query counters and ε spend rate,
// failing with ErrUnknownDataset (404) for an unregistered dataset.
func (s *Service) DatasetStats(name string) (DatasetStats, error) {
	ds, err := s.reg.Get(name)
	if err != nil {
		return DatasetStats{}, err
	}
	c := s.met.ds(ds.Name)
	if c == nil {
		// Registered without a counter block (shouldn't happen — every
		// registration path mints one) — answer with zeros, not a panic.
		c = &dsCounters{window: newEpsWindow(s.met.window)}
	}
	fresh, replayed := c.fresh.Load(), c.replayed.Load()
	out := DatasetStats{
		Dataset:            ds.Name,
		Fresh:              fresh,
		Replayed:           replayed,
		Failed:             c.failed.Load(),
		Rejected:           c.rejected.Load(),
		EpsilonCommitted:   c.epsCommitted.Value(),
		SpendWindowSeconds: s.met.window.Seconds(),
		SpendByFamily:      c.fam.snapshot(),
	}
	if answered := fresh + replayed; answered > 0 {
		out.CacheHitRatio = float64(replayed) / float64(answered)
	}
	now := s.met.now()
	windowSum := c.window.sum(now)
	out.EpsilonPerHour = c.window.ratePerHour(now)
	if st, ok := s.acct.Status(ds.Name); ok {
		out.Budget = &st
		if ttl := ttlSeconds(st.Remaining, windowSum, s.met.window); !math.IsInf(ttl, 1) {
			out.BudgetTTLSeconds = &ttl
		}
	}
	return out, nil
}

// StatusAll snapshots every ledger, sorted by dataset name.
func (a *Accountant) StatusAll() []BudgetStatus {
	a.mu.Lock()
	out := make([]BudgetStatus, 0, len(a.ledgers))
	for name, l := range a.ledgers {
		out = append(out, BudgetStatus{
			Dataset: name, Total: l.total, Spent: l.spent, Reserved: l.reserved, Remaining: l.remaining(),
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}
