package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"recmech/internal/estimate"
	"recmech/internal/graph"
	"recmech/internal/krel"
	"recmech/internal/lp"
	"recmech/internal/mechanism"
	"recmech/internal/noise"
	"recmech/internal/plan"
	"recmech/internal/pool"
	"recmech/internal/query"
	"recmech/internal/service"
	"recmech/internal/store"
	"recmech/internal/subgraph"
)

// The traced run measures the layers without adding tracing to the
// program. It runs the untraced sequence's HTTP operations unchanged,
// spans each ServeHTTP call, and then re-issues the work the service did
// inside that call through the layers' public functions — in the
// service's order, on the same inputs, against shadow state of its own
// (a second store, its own plans) so the served instance never sees it.
// A span records its name, start, end, parent and operation; the parent
// of a re-issued call is the call the service makes it from, so a span's
// self time is its duration minus its children's. Process-wide counters
// are read at the boundaries of groups of HTTP operations, never while a
// background re-warm may still run: a write and the battery answered
// after it form one group, and the re-issued work of a group runs after
// the group's counters are read.

// span is one timed call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: the operation's root
	Op     int     `json:"op"`     // timed operation index; -1 during set-up
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"` // since the traced run began
	End    float64 `json:"endMs"`
	Count  int64   `json:"count,omitempty"`  // work the call reports: matches, tuples, samples, participants
	Allocs uint64  `json:"allocs,omitempty"` // heap allocations during the call, where measured
}

func (s *span) ms() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: ms(start.Sub(r.t0)), End: ms(end.Sub(r.t0))})
	return len(r.spans)
}

// call times fn as a span; fn returns the count the span carries.
func (r *recorder) call(name string, parent, op int, fn func() int64) int {
	start := time.Now()
	n := fn()
	id := r.add(name, parent, op, start, time.Now())
	r.spans[id-1].Count = n
	return id
}

// callAllocs is call plus the heap allocations made during fn.
func (r *recorder) callAllocs(name string, parent, op int, fn func() int64) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := r.call(name, parent, op, fn)
	runtime.ReadMemStats(&m1)
	r.spans[id-1].Allocs = m1.Mallocs - m0.Mallocs
	return id
}

// counters is one reading of every count the per-layer metrics use.
type counters struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	lp      lp.Counters
	dc      plan.DeltaCounters
	st      service.ServiceStats
}

func readCounters(svc *service.Service) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return counters{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs,
		lp: lp.ReadCounters(), dc: plan.ReadDeltaCounters(), st: svc.Stats()}
}

// totals accumulates the served instance's counter deltas over the HTTP
// operation groups, excluding the re-issued work between them.
type totals struct {
	wall, cpu                                   time.Duration
	mallocs                                     uint64
	solves, pivots, warmAttempts, warmApplied   uint64
	warmDiscarded                               uint64
	advances, fallbacks, unitsTotal, unitsDirty uint64
	planShared, planLookups, relShared          uint64
	relLookups, coalesced, evictions            uint64
	walAppends, walBytes                        uint64
	fsyncSeconds                                float64
	poolTasks, poolFanouts, poolInline, dropped uint64
}

func (t *totals) add(a, b counters) {
	t.wall += b.at.Sub(a.at)
	t.cpu += b.cpu - a.cpu
	t.mallocs += b.mallocs - a.mallocs
	t.solves += b.lp.Solves - a.lp.Solves
	t.pivots += b.lp.Pivots - a.lp.Pivots
	t.warmAttempts += b.lp.WarmAttempts - a.lp.WarmAttempts
	t.warmApplied += b.lp.WarmApplied - a.lp.WarmApplied
	t.warmDiscarded += b.lp.WarmDiscarded - a.lp.WarmDiscarded
	t.advances += b.dc.Advances - a.dc.Advances
	t.fallbacks += b.dc.Fallbacks - a.dc.Fallbacks
	t.unitsTotal += b.dc.UnitsTotal - a.dc.UnitsTotal
	t.unitsDirty += b.dc.UnitsDirty - a.dc.UnitsDirty
	for name, c := range b.st.Caches {
		p := a.st.Caches[name]
		shared := (c.Hits + c.Coalesced) - (p.Hits + p.Coalesced)
		lookups := (c.Hits + c.Misses + c.Coalesced) - (p.Hits + p.Misses + p.Coalesced)
		if name == "plan" {
			t.planShared, t.planLookups = t.planShared+shared, t.planLookups+lookups
		} else {
			t.relShared, t.relLookups = t.relShared+shared, t.relLookups+lookups
		}
		t.coalesced += c.Coalesced - p.Coalesced
		t.evictions += c.Evictions - p.Evictions
	}
	if b.st.Store != nil && a.st.Store != nil {
		t.walAppends += b.st.Store.WALAppends - a.st.Store.WALAppends
		t.walBytes += b.st.Store.WALBytes - a.st.Store.WALBytes
		t.fsyncSeconds += b.st.Store.FsyncSecondsSum - a.st.Store.FsyncSecondsSum
	}
	t.poolTasks += b.st.CompilePool.TasksTotal - a.st.CompilePool.TasksTotal
	t.poolFanouts += b.st.CompilePool.FanoutsTotal - a.st.CompilePool.FanoutsTotal
	t.poolInline += b.st.CompilePool.InlineTotal - a.st.CompilePool.InlineTotal
	t.dropped += b.st.Traces.SpansDropped - a.st.Traces.SpansDropped
}

// shadow is the mirror's copy of one plan the service holds.
type shadow struct {
	p        *plan.Plan
	src      plan.Source
	spec     *plan.Spec
	occ      *subgraph.Occurrences // exact graph plans: the retained enumeration
	released bool                  // a release has run since it was compiled or advanced
	advanced bool                  // derived by Plan.Advance
	carried  int                   // H/G values Advance carried over
}

// lpCost sums the wall time and LP work of one kind of first release.
type lpCost struct {
	n              int
	ms             float64
	solves, pivots uint64
}

func (c *lpCost) add(ms float64, a, b lp.Counters) {
	c.n++
	c.ms += ms
	c.solves += b.Solves - a.Solves
	c.pivots += b.Pivots - a.Pivots
}

func (c *lpCost) mean() map[string]float64 {
	if c.n == 0 {
		return nil
	}
	n := float64(c.n)
	return map[string]float64{"n": n, "ms": c.ms / n, "solves": float64(c.solves) / n, "pivots": float64(c.pivots) / n}
}

// queued is an answered operation whose re-issue waits for its group's end.
type queued struct {
	i      int
	o      *op
	root   int
	body   []byte
	cached bool
}

// mirror re-issues each operation's internal work, spanned, on shadow state.
type mirror struct {
	rec    *recorder
	svc    *service.Service
	st     *store.Store
	pool   *pool.Pool
	ctx    context.Context
	rng    *rand.Rand
	graphs map[string]*graph.Graph
	dbs    map[string]*store.DatasetFile
	gens   map[string]uint64
	funded map[string]bool
	plans  map[string]*shadow

	queue    []queued
	inGroup  bool
	c0       counters
	tot      totals
	svcSpans int // spans the service's own tracer recorded for the timed ops
	carried  int // values carried into advanced plans, over their first releases
	solved   int // H/G entries those first releases still had to solve
	err      error

	// Comparisons outside the service's own path, reported as diagnostics:
	// each advanced plan's first release against a fresh compile of the
	// same generation, and each fresh first release against the same
	// compile without the compute pool.
	cmp    map[string]*lpCost
	cmpRng *rand.Rand
}

// newMirror opens the shadow store under dir and re-issues w's set-up, so
// the shadow state matches the served instance's when the timed phase
// starts.
func newMirror(w *workload, in *instance, dir string) (*mirror, error) {
	rec := &recorder{t0: time.Now()}
	var st *store.Store
	var err error
	rec.call("store.open", 0, -1, func() int64 {
		st, err = store.Open(store.Config{Dir: dir})
		return 0
	})
	if err != nil {
		return nil, fmt.Errorf("open shadow store: %w", err)
	}
	m := &mirror{
		rec: rec, svc: in.svc, st: st,
		pool: pool.New(runtime.GOMAXPROCS(0)), ctx: context.Background(), rng: noise.NewRand(1),
		graphs: map[string]*graph.Graph{}, dbs: map[string]*store.DatasetFile{},
		gens: map[string]uint64{}, funded: map[string]bool{}, plans: map[string]*shadow{},
		cmp: map[string]*lpCost{"advanced_release": {}, "fresh_same_generation": {},
			"first_release_pool": {}, "first_release_sequential": {}},
		cmpRng: noise.NewRand(2),
	}
	for i := range w.setup {
		m.reissue(queued{i: -1, o: &w.setup[i]})
	}
	if m.err != nil {
		st.Close()
		return nil, m.err
	}
	return m, nil
}

func (m *mirror) close() { m.st.Close() }

// before reads the counters at the start of an operation group.
func (m *mirror) before() {
	if !m.inGroup {
		m.c0 = readCounters(m.svc)
	}
}

// after spans the HTTP call and queues its re-issue; at the end of a group
// it reads the counters, then re-issues the group's work.
func (m *mirror) after(i int, o *op, rec *httptest.ResponseRecorder, t0 time.Time, d time.Duration) {
	root := m.rec.add("service.http", 0, i, t0, t0.Add(d))
	q := queued{i: i, o: o, root: root, body: append([]byte(nil), rec.Body.Bytes()...)}
	if o.isRelease() {
		var resp service.Response
		if json.Unmarshal(q.body, &resp) == nil {
			q.cached = resp.Cached
		}
	}
	if id := rec.Header().Get("X-Recmech-Trace-Id"); id != "" {
		if td, err := m.svc.Trace(id); err == nil {
			m.svcSpans += td.Spans
		}
	}
	m.queue = append(m.queue, q)
	if o.write {
		m.inGroup = true
	}
	if o.lastRead {
		m.inGroup = false
	}
	if m.inGroup {
		return
	}
	m.tot.add(m.c0, readCounters(m.svc))
	for _, q := range m.queue {
		m.reissue(q)
	}
	m.queue = m.queue[:0]
}

func (m *mirror) fail(err error) {
	if err != nil && m.err == nil {
		m.err = err
	}
}

func (m *mirror) reissue(q queued) {
	if m.err != nil || q.cached {
		return // a replay is answered by the release cache: no layer below runs
	}
	o := q.o
	switch {
	case o.upload != nil && o.upload.Kind == "graph":
		m.putGraph(q)
	case o.upload != nil:
		m.putTables(q)
	case o.patch != nil && o.patch.Edges != "":
		m.patchGraph(q)
	case o.patch != nil:
		m.patchRows(q)
	case o.class == classPrepare:
		sh := m.compile(q, o.query)
		if sh != nil {
			eps := o.query.Epsilon
			if eps == 0 {
				eps = 0.5 // the service's default ε
			}
			m.rec.call("plan.warm", q.root, q.i, func() int64 { m.fail(sh.p.Warm(m.ctx, eps)); return 0 })
			sh.released = true
		}
	case o.isRelease():
		sh := m.plans[planKey(o.query)]
		if sh == nil {
			if sh = m.compile(q, o.query); sh == nil {
				return
			}
		}
		m.release(q, sh)
	}
}

func (m *mirror) fund(ds string) {
	if !m.funded[ds] {
		m.fail(m.st.Grant(ds, datasetBudget))
		m.funded[ds] = true
	}
}

func (m *mirror) dropPlans(ds string) {
	for k := range m.plans {
		if strings.HasPrefix(k, ds+"|") {
			delete(m.plans, k)
		}
	}
}

func (m *mirror) putGraph(q queued) {
	ds, text := q.o.dataset, []byte(q.o.upload.Graph)
	var df *store.DatasetFile
	w := m.rec.call("store.dataset_write", q.root, q.i, func() int64 {
		var err error
		df, err = m.st.Datasets().PutGraphFloor(ds, text, 0)
		m.fail(err)
		return int64(len(text))
	})
	m.rec.call("graph.parse", w, q.i, func() int64 {
		g, err := graph.ReadEdgeList(strings.NewReader(q.o.upload.Graph))
		m.fail(err)
		return int64(g.NumEdges())
	})
	if df != nil {
		m.graphs[ds], m.gens[ds] = df.Graph, df.Version
	}
	m.fund(ds)
	m.dropPlans(ds)
}

func (m *mirror) putTables(q queued) {
	ds := q.o.dataset
	tables := map[string][]byte{}
	for k, v := range q.o.upload.Tables {
		tables[k] = []byte(v)
	}
	m.writeTables(q, ds, tables)
	m.fund(ds)
}

func (m *mirror) writeTables(q queued, ds string, tables map[string][]byte) {
	m.rec.call("store.dataset_write", q.root, q.i, func() int64 {
		df, err := m.st.Datasets().PutTablesFloor(ds, tables, 0)
		m.fail(err)
		if df != nil {
			m.dbs[ds], m.gens[ds] = df, df.Version
		}
		return int64(len(tables))
	})
	m.dropPlans(ds)
}

// patchRows re-materializes the appended tables, as the service does for
// relational appends (SQL plans have no incremental path).
func (m *mirror) patchRows(q queued) {
	ds := q.o.dataset
	texts, _, err := m.st.Datasets().RawTables(ds)
	if err != nil {
		m.fail(err)
		return
	}
	for tbl, add := range q.o.patch.Rows {
		base := strings.TrimRight(string(texts[tbl]), "\n")
		texts[tbl] = []byte(base + "\n" + strings.TrimRight(add, "\n") + "\n")
	}
	m.writeTables(q, ds, texts)
}

// patchGraph is the graph append: parse the delta, rebuild the adjacency
// with the new edges, journal the delta, then advance every plan of the
// dataset as the service's background re-warm does.
func (m *mirror) patchGraph(q queued) {
	ds := q.o.dataset
	var dg *graph.Graph
	m.rec.call("graph.parse", q.root, q.i, func() int64 {
		var err error
		dg, err = graph.ReadEdgeList(strings.NewReader(q.o.patch.Edges))
		m.fail(err)
		return int64(dg.NumEdges())
	})
	if m.err != nil {
		return
	}
	old, added := m.graphs[ds], dg.Edges()
	var g2 *graph.Graph
	m.rec.call("graph.clone", q.root, q.i, func() int64 {
		n := old.NumNodes()
		if dg.NumNodes() > n {
			n = dg.NumNodes()
		}
		g2 = graph.New(n)
		for _, e := range old.Edges() {
			g2.AddEdge(e.U, e.V)
		}
		for _, e := range added {
			g2.AddEdge(e.U, e.V)
		}
		return int64(g2.NumEdges())
	})
	m.gens[ds]++
	payload := mustJSON(q.o.patch)
	m.rec.call("store.append_delta", q.root, q.i, func() int64 {
		m.fail(m.st.AppendDelta(ds, m.gens[ds], payload))
		return int64(len(payload))
	})
	m.graphs[ds] = g2
	keys := make([]string, 0, len(m.plans))
	for k := range m.plans {
		if strings.HasPrefix(k, ds+"|") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		sh := m.plans[k]
		var np *plan.Plan
		var prof plan.AdvanceProfile
		a := m.rec.call("plan.advance", q.root, q.i, func() int64 {
			var err error
			np, prof, err = sh.p.Advance(m.ctx, plan.Source{Graph: g2}, plan.Delta{Added: added}, m.pool)
			m.fail(err)
			return int64(prof.UnitsDirty)
		})
		if m.err != nil {
			return
		}
		next := &shadow{p: np, src: plan.Source{Graph: g2}, spec: sh.spec, advanced: true, carried: prof.ValuesCarried}
		if sh.occ != nil {
			m.rec.call("subgraph.advance", a, q.i, func() int64 {
				occ, info, err := sh.occ.Advance(g2, added, subgraph.Fanout(m.pool.Fanout(m.ctx)))
				m.fail(err)
				next.occ = occ
				if info == nil {
					return 0
				}
				return int64(info.UnitsDirty)
			})
		} else if spec := sh.p.Spec(); spec != nil && spec.Mode == plan.ModeSampled {
			m.estimate(a, q.i, g2, spec) // the fallback recompile runs the estimator
		}
		m.plans[k] = next
	}
}

// compile re-issues a fresh compile: the layer calls CompileContext makes
// (as children of its span), then CompileContext itself.
func (m *mirror) compile(q queued, req *service.Request) *shadow {
	spec := specFor(req, m.graphs[req.Dataset])
	if err := spec.Validate(); err != nil {
		m.fail(err)
		return nil
	}
	src := plan.Source{Graph: m.graphs[req.Dataset]}
	if df := m.dbs[req.Dataset]; df != nil && req.Kind == plan.KindSQL {
		src = plan.Source{DB: df.DB, Universe: df.Universe}
	}
	var p *plan.Plan
	c := m.rec.callAllocs("plan.compile", q.root, q.i, func() int64 {
		var err error
		p, err = plan.CompileContext(m.ctx, src, spec, m.pool)
		m.fail(err)
		if p == nil {
			return 0
		}
		return int64(p.NumParticipants())
	})
	if m.err != nil {
		return nil
	}
	sh := &shadow{p: p, src: src, spec: spec}
	var sens *krel.Sensitive
	switch {
	case spec.Kind == plan.KindSQL:
		var pq *query.Query
		m.rec.call("query.parse", c, q.i, func() int64 {
			var err error
			pq, err = query.Parse(spec.Query)
			m.fail(err)
			return 0
		})
		if m.err != nil {
			return nil
		}
		m.rec.call("query.eval", c, q.i, func() int64 {
			out, err := pq.Eval(src.DB)
			if err != nil {
				m.fail(err)
				return 0
			}
			sens = krel.NewSensitive(src.Universe, out)
			return int64(out.Size())
		})
	case spec.Mode == plan.ModeSampled:
		m.estimate(c, q.i, src.Graph, spec)
	default:
		m.rec.call("subgraph.enumerate", c, q.i, func() int64 {
			occ, s, err := enumerate(src.Graph, spec, m.pool.Fanout(m.ctx))
			m.fail(err)
			sh.occ, sens = occ, s
			if occ == nil {
				return 0
			}
			return int64(len(occ.Matches()))
		})
	}
	if sens != nil {
		m.rec.call("mechanism.encode", c, q.i, func() int64 {
			e, err := mechanism.NewEfficientFromSensitive(sens, krel.CountQuery)
			m.fail(err)
			if e == nil {
				return 0
			}
			return int64(e.NumParticipants())
		})
	}
	m.plans[planKey(req)] = sh
	return sh
}

// enumerate is the exact graph compile's build step: the retained
// enumeration and the sensitive relation over its matches.
func enumerate(g *graph.Graph, spec *plan.Spec, fan func(int, func(int) error) error) (*subgraph.Occurrences, *krel.Sensitive, error) {
	var occ *subgraph.Occurrences
	var err error
	switch spec.Kind {
	case plan.KindTriangles:
		occ, err = subgraph.TrianglesRetained(g, fan)
	case plan.KindKStars:
		occ, err = subgraph.KStarsRetained(g, spec.K, fan)
	case plan.KindKTriangles:
		occ, err = subgraph.KTrianglesRetained(g, spec.K, fan)
	default:
		edges := make([]graph.Edge, len(spec.PatternEdges))
		for i, e := range spec.PatternEdges {
			u, v := e[0], e[1]
			if u > v {
				u, v = v, u
			}
			edges[i] = graph.Edge{U: u, V: v}
		}
		occ, err = subgraph.PatternRetained(g, subgraph.NewPattern(spec.PatternNodes, edges), fan)
	}
	if err != nil {
		return nil, nil, err
	}
	priv := subgraph.NodePrivacy
	if spec.EdgePrivacy {
		priv = subgraph.EdgePrivacy
	}
	return occ, subgraph.BuildRelation(g, occ.Matches(), priv, nil), nil
}

// estimate re-issues a sampled compile's estimator run, seeded as the
// plan layer seeds it (from the spec's canonical identity).
func (m *mirror) estimate(parent, op int, g *graph.Graph, spec *plan.Spec) {
	key, err := spec.Key()
	if err != nil {
		m.fail(err)
		return
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := noise.NewRand(int64(h.Sum64()))
	opt := estimate.Options{Samples: spec.SampleBudget}
	m.rec.call("estimate."+spec.Kind, parent, op, func() int64 {
		var res estimate.Result
		switch spec.Kind {
		case plan.KindTriangles:
			res = estimate.Triangles(g, rng, opt)
		case plan.KindKStars:
			res = estimate.KStars(g, spec.K, rng, opt)
		case plan.KindKTriangles:
			res = estimate.KTriangles(g, spec.K, rng, opt)
		}
		return int64(res.Samples)
	})
}

// release re-issues a non-cached release as the executor draws it —
// ReleaseObserved, which adds the Theorem 1 error profile the service
// records — between the reserve and the commit, then the WAL record.
func (m *mirror) release(q queued, sh *shadow) {
	ds, eps := q.o.dataset, q.o.query.Epsilon
	var id uint64
	m.rec.call("store.reserve", q.root, q.i, func() int64 {
		var err error
		id, err = m.st.Reserve(ds, eps)
		m.fail(err)
		return 0
	})
	name := "plan.hit_release"
	switch {
	case !sh.released && sh.advanced:
		name = "plan.advanced_release"
	case !sh.released:
		name = "plan.first_release"
	}
	lp0 := lp.ReadCounters()
	r := m.rec.callAllocs(name, q.root, q.i, func() int64 {
		_, err := sh.p.ReleaseObserved(m.ctx, eps, m.rng)
		m.fail(err)
		return 0
	})
	lp1 := lp.ReadCounters()
	if sh.advanced && !sh.released {
		h, g := sh.p.Solves()
		m.carried += sh.carried
		m.solved += int(h + g)
	}
	if q.i >= 0 && !sh.released && sh.spec.Mode != plan.ModeSampled {
		switch {
		case sh.advanced && m.cmp["advanced_release"].n < maxCompared:
			m.cmp["advanced_release"].add(m.rec.spans[r-1].ms(), lp0, lp1)
			m.compare("fresh_same_generation", sh, eps, m.pool, true)
		case !sh.advanced && m.cmp["first_release_pool"].n < maxCompared:
			m.cmp["first_release_pool"].add(m.rec.spans[r-1].ms(), lp0, lp1)
			m.compare("first_release_sequential", sh, eps, nil, false)
		}
	}
	sh.released = true
	m.rec.call("store.commit", q.root, q.i, func() int64 { m.fail(m.st.Commit(id)); return 0 })
	m.rec.call("store.release", q.root, q.i, func() int64 {
		m.fail(m.st.Release(fmt.Sprintf("mirror|%d", q.i), q.body))
		return int64(len(q.body))
	})
}

// maxCompared caps the first releases of each kind that the traced run
// compares with a second compile: each comparison repeats a compile, and
// the cap keeps the traced run well inside the benchmark's time limit.
const maxCompared = 60

// compare compiles sh's spec afresh on sh's generation with workers (nil:
// sequentially) and releases it at eps, adding the release's time and LP
// work — plus the compile's, when withCompile — to the named comparison.
func (m *mirror) compare(name string, sh *shadow, eps float64, workers *pool.Pool, withCompile bool) {
	t0 := time.Now()
	p, err := plan.CompileContext(m.ctx, sh.src, sh.spec, workers)
	if err != nil {
		m.fail(err)
		return
	}
	a := lp.ReadCounters()
	t1 := time.Now()
	_, err = p.ReleaseObserved(m.ctx, eps, m.cmpRng)
	m.fail(err)
	if withCompile {
		t1 = t0
	}
	m.cmp[name].add(ms(time.Since(t1)), a, lp.ReadCounters())
}

// specFor builds the plan spec the service derives from a request,
// resolving mode "auto" against the dataset's size as the service does.
func specFor(req *service.Request, g *graph.Graph) *plan.Spec {
	spec := &plan.Spec{Kind: req.Kind, Query: req.Query, K: req.K, PatternNodes: req.PatternNodes,
		PatternEdges: req.PatternEdges, EdgePrivacy: req.Privacy == "edge", Mode: plan.ModeExact}
	sampled := req.Mode == "sampled" || (req.Mode == "" && g != nil && g.NumEdges() >= 500_000)
	if req.Kind != plan.KindSQL && sampled {
		spec.Mode, spec.SampleBudget = plan.ModeSampled, estimate.DefaultSamples
		if req.Samples > 0 {
			spec.SampleBudget = req.Samples
		}
	}
	return spec
}

// planKey identifies a plan of one dataset (any generation: the mirror
// drops or advances a dataset's plans on every write).
func planKey(req *service.Request) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d|%v|%s|%d|%s", req.Dataset, req.Kind, req.Privacy, req.K,
		req.PatternNodes, req.PatternEdges, req.Mode, req.Samples, req.Query)
}

// runTraced is the traced run: the same sequence as an untraced run,
// with the mirror attached. It reports only per-layer metrics; baseOps is
// an untraced run's ops_per_s, the base of the tracing overhead.
func runTraced(w *workload, cfg runConfig, seed int64, baseOps float64) (*result, error) {
	cfg.setups, cfg.traced = 1, true
	res, err := run(w, cfg)
	if err != nil {
		return nil, err
	}
	m := res.mirror
	if err := writeSpans(m.rec.spans, filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, err
	}
	tracedOps := res.Metrics["ops_per_s"].Value
	res.Metrics = m.metrics(w, tracedOps, baseOps)
	// The whole-phase counter readings include the re-issued work; report
	// the served instance's own figures instead.
	for _, k := range []string{"lp.solves_per_op", "lp.pivots_per_op", "service.rewarm_advanced_share", "plan.fallbacks"} {
		res.diag[k] = res.Metrics[k].Value
	}
	res.diag["untraced_ops_per_s"] = baseOps
	res.diag["spans"] = len(m.rec.spans)
	res.diag["share_of_http_ms"] = m.shares()
	cmp := map[string]any{}
	for k, c := range m.cmp {
		if mean := c.mean(); mean != nil {
			cmp[k] = mean
		}
	}
	res.diag["first_release_comparisons"] = cmp
	return res, nil
}

// shares sums each re-issued call's time over the timed operations, as a
// share of the time the HTTP calls took; a nested call's share is part of
// its parent's.
func (m *mirror) shares() map[string]float64 {
	sum := map[string]float64{}
	for i := range m.rec.spans {
		if s := &m.rec.spans[i]; s.Op >= 0 {
			sum[s.Name] += s.ms()
		}
	}
	http := sum["service.http"]
	out := map[string]float64{}
	for name, v := range sum {
		if name != "service.http" && http > 0 {
			out[name] = v / http
		}
	}
	return out
}

// untracedBaseline runs this binary with --trace 0 and returns the
// ops_per_s of its result line.
func untracedBaseline(name string, seed int64, seconds int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("untraced baseline run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return 0, fmt.Errorf("untraced baseline result: %w", err)
	}
	if !r.Correct {
		return 0, fmt.Errorf("untraced baseline run was not correct")
	}
	return r.Metrics["ops_per_s"].Value, nil
}

// writeSpans writes the run's spans to path, one JSON object a line.
func writeSpans(spans []span, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metrics derives the per-layer metrics from the spans and counters.
func (m *mirror) metrics(w *workload, tracedOps, baseOps float64) map[string]metricValue {
	n := float64(len(w.ops))
	type agg struct {
		ms, count, allocs float64
		k                 int
	}
	by := map[string]*agg{}
	children := map[int]float64{}
	for i := range m.rec.spans {
		s := &m.rec.spans[i]
		if s.Op < 0 {
			continue
		}
		if s.Parent != 0 {
			children[s.Parent] += s.ms()
		}
		name := s.Name
		if strings.HasPrefix(name, "estimate.") {
			name = "estimate"
		}
		a := by[name]
		if a == nil {
			a = &agg{}
			by[name] = a
		}
		a.ms += s.ms()
		a.count += float64(s.Count)
		a.allocs += float64(s.Allocs)
		a.k++
	}
	self, roots := 0.0, 0
	for i := range m.rec.spans {
		s := &m.rec.spans[i]
		if s.Op >= 0 && s.Name == "service.http" {
			if d := s.ms() - children[s.ID]; d > 0 {
				self += d
			}
			roots++
		}
	}
	mean := func(name string, field func(*agg) float64) float64 {
		if a := by[name]; a != nil && a.k > 0 {
			return field(a) / float64(a.k)
		}
		return 0
	}
	msOf := func(name string) float64 { return mean(name, func(a *agg) float64 { return a.ms }) }
	countOf := func(name string) float64 { return mean(name, func(a *agg) float64 { return a.count }) }
	allocsOf := func(name string) float64 { return mean(name, func(a *agg) float64 { return a.allocs }) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	t := &m.tot
	v := func(x float64, unit string) metricValue { return metricValue{Value: x, Unit: unit} }
	return map[string]metricValue{
		"service.handler_self_ms":       v(ratio(self, float64(roots)), "ms"),
		"service.allocs_per_op":         v(ratio(float64(t.mallocs), n), "count/op"),
		"service.rewarm_advanced_share": v(ratio(float64(t.advances), float64(postAppendQueries(w.ops))), "ratio"),
		"sfcache.plan_hit_ratio":        v(ratio(float64(t.planShared), float64(t.planLookups)), "ratio"),
		"sfcache.release_hit_ratio":     v(ratio(float64(t.relShared), float64(t.relLookups)), "ratio"),
		"sfcache.coalesced":             v(float64(t.coalesced), "count"),
		"sfcache.evictions":             v(float64(t.evictions), "count"),
		"store.wal_appends_per_op":      v(ratio(float64(t.walAppends), n), "count/op"),
		"store.wal_bytes_per_op":        v(ratio(float64(t.walBytes), n), "B/op"),
		"store.fsync_ms_per_op":         v(ratio(t.fsyncSeconds*1000, n), "ms/op"),
		"store.dataset_write_ms":        v(msOf("store.dataset_write"), "ms"),
		"query.parse_ms":                v(msOf("query.parse"), "ms"),
		"query.eval_ms":                 v(msOf("query.eval"), "ms"),
		"query.result_tuples":           v(countOf("query.eval"), "count"),
		"graph.parse_ms":                v(msOf("graph.parse"), "ms"),
		"graph.clone_ms":                v(msOf("graph.clone"), "ms"),
		"subgraph.enumerate_ms":         v(msOf("subgraph.enumerate"), "ms"),
		"subgraph.matches":              v(countOf("subgraph.enumerate"), "count"),
		"subgraph.advance_ms":           v(msOf("subgraph.advance"), "ms"),
		"subgraph.dirty_unit_share":     v(ratio(float64(t.unitsDirty), float64(t.unitsTotal)), "ratio"),
		"mechanism.encode_ms":           v(msOf("mechanism.encode"), "ms"),
		"mechanism.participants":        v(countOf("mechanism.encode"), "count"),
		"plan.compile_ms":               v(msOf("plan.compile"), "ms"),
		"plan.first_release_ms":         v(msOf("plan.first_release"), "ms"),
		"plan.hit_release_ms":           v(msOf("plan.hit_release"), "ms"),
		"plan.advance_ms":               v(msOf("plan.advance"), "ms"),
		"plan.advanced_release_ms":      v(msOf("plan.advanced_release"), "ms"),
		"plan.values_carried_share":     v(ratio(float64(m.carried), float64(m.carried+m.solved)), "ratio"),
		"plan.fallbacks":                v(float64(t.fallbacks), "count"),
		"plan.compile_allocs":           v(allocsOf("plan.compile"), "count"),
		"plan.release_allocs":           v(allocsOf("plan.hit_release"), "count"),
		"lp.solves_per_op":              v(ratio(float64(t.solves), n), "count/op"),
		"lp.pivots_per_op":              v(ratio(float64(t.pivots), n), "count/op"),
		"lp.pivots_per_solve":           v(ratio(float64(t.pivots), float64(t.solves)), "count"),
		"lp.warm_applied_share":         v(ratio(float64(t.warmApplied), float64(t.warmAttempts)), "ratio"),
		"lp.warm_discarded":             v(float64(t.warmDiscarded), "count"),
		"pool.tasks_per_op":             v(ratio(float64(t.poolTasks), n), "count/op"),
		"pool.inline_share":             v(ratio(float64(t.poolInline), float64(t.poolFanouts)), "ratio"),
		"pool.cpu_per_wall":             v(ratio(t.cpu.Seconds(), t.wall.Seconds()), "ratio"),
		"estimate.ms":                   v(msOf("estimate"), "ms"),
		"estimate.samples":              v(countOf("estimate"), "count"),
		"trace.spans_per_op":            v(ratio(float64(m.svcSpans), n), "count/op"),
		"trace.spans_dropped":           v(float64(t.dropped), "count"),
		"trace.ops_per_s":               v(tracedOps, "1/s"),
		"trace.overhead_share":          v(1-ratio(tracedOps, baseOps), "ratio"),
	}
}
