// Package plan separates the expensive, deterministic analysis of a
// differentially private query from its cheap, randomized release.
//
// The recursive mechanism's cost profile is lopsided: compiling a query —
// parsing, canonicalizing, deriving the sensitive K-relation, flattening it
// into the LP encoding of §5, and evaluating entries of the sequences H and
// G (one LP solve each) — is deterministic and can take milliseconds, while
// an actual ε-DP release on top of that state is two Laplace draws and a
// pair of logarithmic searches over already solved sequence values. A Plan
// captures everything deterministic once; Release then produces any number
// of independent ε-DP answers, each at full price in privacy budget but
// near-zero price in computation. Production DP-SQL engines (FLEX,
// arXiv:1706.09479; Chorus, arXiv:1809.07750) use the same
// compile/execute split; this package is that split for the recursive
// mechanism.
//
// Concurrency: a Plan is immutable after Compile except for the solved
// ladder — each H/G value beside its LP warm-start basis — that the
// mechanism.Efficient beneath it keeps under its own lock, so any number
// of goroutines may call Release on one Plan simultaneously. Cache adds a
// bounded, singleflight-coalescing plan cache for serving layers.
//
// Parallelism: CompileContext attaches a shared compute pool
// (internal/pool) that shards the subgraph enumeration during compilation
// and fans the ladder's independent H/G LP solves into probe waves during
// Release and Warm. Every shard boundary and probe index is a fixed
// function of the workload — never of the pool size — so a plan compiled
// and released with any pool size produces bit-identical Δ,
// sequence values and noise draws to the sequential path; this is what
// keeps the durable replay cache and recorded-release WAL stable.
//
// Nothing in a Plan is differentially private: Δ, H, G, and the true answer
// are all sensitive intermediates. Only the value returned by Release may
// leave the trust boundary.
package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recmech/internal/boolexpr"
	"recmech/internal/estimate"
	"recmech/internal/graph"
	"recmech/internal/krel"
	"recmech/internal/mechanism"
	"recmech/internal/noise"
	"recmech/internal/pool"
	"recmech/internal/query"
	"recmech/internal/subgraph"
	"recmech/internal/trace"
)

// Query kinds a Spec can describe. These are the wire-level kind strings of
// the serving layer; internal/service aliases them.
const (
	KindSQL        = "sql"        // SQL-like query against a relational dataset
	KindTriangles  = "triangles"  // triangle count on a graph dataset
	KindKStars     = "kstars"     // k-star count (K required)
	KindKTriangles = "ktriangles" // k-triangle count (K required)
	KindPattern    = "pattern"    // arbitrary connected pattern count
)

// Workload size ceilings. Subgraph enumeration is combinatorial in k and in
// the pattern size, so an unbounded spec could pin a CPU indefinitely — a
// cheap denial of service on an endpoint that accepts untrusted JSON. The
// caps comfortably cover the paper's workloads (k ≤ 5, patterns on ≤ 5
// nodes).
const (
	MaxK            = 10 // kstars/ktriangles
	MaxPatternNodes = 8
	MaxPatternEdges = 28 // complete graph on MaxPatternNodes nodes
)

// ErrSpec is the sentinel matched (via errors.Is) by every caller-caused
// compilation failure: unknown kind, parse error, workload over a cap, or a
// spec aimed at the wrong dataset shape. Anything not matching ErrSpec is
// an internal fault.
var ErrSpec = errors.New("plan: invalid spec")

// SpecError is the concrete caller-caused failure; it matches ErrSpec.
type SpecError struct{ Reason string }

func (e *SpecError) Error() string        { return "plan: " + e.Reason }
func (e *SpecError) Is(target error) bool { return target == ErrSpec }

func specErrorf(format string, args ...any) error {
	return &SpecError{Reason: fmt.Sprintf(format, args...)}
}

// Spec is the deterministic identity of one query workload: what to count,
// under which privacy model — everything about a request except the dataset
// it runs against and the ε it spends. Two requests with the same Spec (and
// the same dataset snapshot) share a Plan.
//
// Fields are compared canonically, not textually: SQL is parsed and
// re-rendered through the query canonicalizer, pattern edges are normalized
// and sorted. Construct a Spec, call Validate once, then treat it as
// immutable.
type Spec struct {
	Kind string

	Query string // KindSQL: the query text

	K            int      // kstars/ktriangles: the k
	PatternNodes int      // pattern: node count
	PatternEdges [][2]int // pattern: edges on 0..PatternNodes-1

	// EdgePrivacy selects the weaker edge-privacy model for graph kinds;
	// the default (false) is node privacy. SQL always protects
	// participants, the node-like setting.
	EdgePrivacy bool

	// Mode selects the compile tier: ModeExact (or "") enumerates
	// exhaustively and runs the full recursive mechanism; ModeSampled runs
	// the estimator tier of internal/estimate instead. The serving layer
	// copies the request's mode here; nothing picks a tier by data size.
	Mode string
	// SampleBudget is the estimator's sample count in ModeSampled
	// (0 = estimate.DefaultSamples, normalized by Validate so the budget
	// is part of the spec's canonical identity).
	SampleBudget int

	parsed *query.Query // cached parse tree (KindSQL), set by Validate
}

// Validate checks the spec's kind-specific invariants and caches the SQL
// parse tree, so later Detail/Compile calls never re-lex the text. All
// failures match ErrSpec.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindSQL:
		if strings.TrimSpace(s.Query) == "" {
			return specErrorf("kind %q requires a query", s.Kind)
		}
		if s.EdgePrivacy {
			return specErrorf("privacy applies to graph kinds only; kind %q always protects participants", s.Kind)
		}
		q, err := query.Parse(s.Query)
		if err != nil {
			return &SpecError{Reason: err.Error()}
		}
		s.parsed = q
	case KindTriangles:
	case KindKStars, KindKTriangles:
		if s.K < 1 || s.K > MaxK {
			return specErrorf("kind %q requires 1 ≤ k ≤ %d, got %d", s.Kind, MaxK, s.K)
		}
	case KindPattern:
		if s.PatternNodes < 1 || s.PatternNodes > MaxPatternNodes {
			return specErrorf("kind %q requires 1 ≤ patternNodes ≤ %d, got %d", s.Kind, MaxPatternNodes, s.PatternNodes)
		}
		if len(s.PatternEdges) > MaxPatternEdges {
			return specErrorf("at most %d pattern edges, got %d", MaxPatternEdges, len(s.PatternEdges))
		}
		for _, e := range s.PatternEdges {
			if e[0] < 0 || e[0] >= s.PatternNodes || e[1] < 0 || e[1] >= s.PatternNodes || e[0] == e[1] {
				return specErrorf("pattern edge [%d,%d] out of range for %d nodes", e[0], e[1], s.PatternNodes)
			}
		}
	case "":
		return specErrorf("kind is required (one of sql, triangles, kstars, ktriangles, pattern)")
	default:
		return specErrorf("unknown kind %q (one of sql, triangles, kstars, ktriangles, pattern)", s.Kind)
	}
	return s.validateMode()
}

func (s *Spec) validateMode() error {
	switch s.Mode {
	case "", ModeExact:
		if s.SampleBudget != 0 {
			return specErrorf("sample budget applies to mode %q only", ModeSampled)
		}
	case ModeSampled:
		if s.Kind == KindSQL {
			return specErrorf("mode %q applies to graph kinds only; kind %q always compiles exactly", ModeSampled, s.Kind)
		}
		if s.SampleBudget < 0 || s.SampleBudget > estimate.MaxSamples {
			return specErrorf("sample budget must be in [0, %d], got %d", estimate.MaxSamples, s.SampleBudget)
		}
		if s.SampleBudget == 0 {
			s.SampleBudget = estimate.DefaultSamples
		}
	default:
		return specErrorf("unknown mode %q (one of %q, %q)", s.Mode, ModeExact, ModeSampled)
	}
	return nil
}

// Privacy returns the wire-level privacy model name, "node" or "edge".
func (s *Spec) Privacy() string {
	if s.EdgePrivacy {
		return "edge"
	}
	return "node"
}

// nodeLike reports whether the mechanism should use the node-privacy
// parameter defaults (µ = 1). Relational queries protect arbitrary
// participants, the stronger setting.
func (s *Spec) nodeLike() bool {
	return s.Kind == KindSQL || !s.EdgePrivacy
}

// Detail renders the kind-specific canonical identity of the workload: the
// canonicalized SQL, "k=N", or the sorted normalized pattern edge list.
// Two specs of the same kind and privacy with equal Detail describe the
// same computation. Validate must have succeeded.
//
// A sampled spec appends a "mode=sampled;samples=N" segment: a sampled
// estimate and an exact answer are different computations and must never
// share a release-cache or plan-cache entry. Exact specs render exactly as
// they did before the estimator tier existed, so durable WAL entries
// recorded by earlier versions keep replaying byte-for-byte.
func (s *Spec) Detail() (string, error) {
	base, err := s.detailBase()
	if err != nil {
		return "", err
	}
	if s.Mode != ModeSampled {
		return base, nil
	}
	suffix := fmt.Sprintf("mode=sampled;samples=%d", s.SampleBudget)
	if base == "" {
		return suffix, nil
	}
	return base + ";" + suffix, nil
}

func (s *Spec) detailBase() (string, error) {
	switch s.Kind {
	case KindSQL:
		q := s.parsed
		if q == nil {
			var err error
			if q, err = query.Parse(s.Query); err != nil {
				return "", &SpecError{Reason: err.Error()}
			}
			s.parsed = q
		}
		return q.Canonical(), nil
	case KindKStars, KindKTriangles:
		return fmt.Sprintf("k=%d", s.K), nil
	case KindPattern:
		edges := make([]string, len(s.PatternEdges))
		for i, e := range s.PatternEdges {
			u, v := e[0], e[1]
			if u > v {
				u, v = v, u
			}
			edges[i] = fmt.Sprintf("%d-%d", u, v)
		}
		sort.Strings(edges)
		return fmt.Sprintf("n=%d;%s", s.PatternNodes, strings.Join(edges, ",")), nil
	}
	return "", nil
}

// Key is the full canonical identity of the spec — kind, privacy model, and
// Detail — suitable as a plan-cache key once the caller prefixes the
// dataset snapshot identity. Validate must have succeeded.
func (s *Spec) Key() (string, error) {
	detail, err := s.Detail()
	if err != nil {
		return "", err
	}
	return s.Kind + "|" + s.Privacy() + "|" + detail, nil
}

// pattern builds the validated subgraph pattern for KindPattern, converting
// subgraph.NewPattern's panics (disconnected, isolated node) into
// SpecErrors.
func (s *Spec) pattern() (p subgraph.Pattern, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = specErrorf("invalid pattern: %v", rec)
		}
	}()
	edges := make([]graph.Edge, len(s.PatternEdges))
	for i, e := range s.PatternEdges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		edges[i] = graph.Edge{U: u, V: v}
	}
	return subgraph.NewPattern(s.PatternNodes, edges), nil
}

// Source is the sensitive data a plan compiles against: exactly one of the
// two shapes is populated (a graph, or a relational catalogue with the
// participant universe its annotations resolve in).
type Source struct {
	Graph    *graph.Graph
	DB       *query.Database
	Universe *boolexpr.Universe
}

// Plan is one compiled query: the sensitive K-relation derived, and the LP
// encoding built, whose mechanism.Efficient keeps every sequence value
// solved so far. It is safe for concurrent Release calls and produces
// releases at any ε — the expensive state is ε-independent, only the
// O(log |P|) ladder searches and the noise draws are per-release.
type Plan struct {
	kind     string
	nodeLike bool
	eff      *mechanism.Efficient // the LP encoding and its solved ladder; nil for sampled plans
	nP       int
	live     *liveSet
	pool     *pool.Pool     // shared compute pool for ladder waves; nil = serial
	profile  CompileProfile // how much the one-time compile cost
	sampled  *sampledState  // non-nil iff this is an estimator-tier plan

	// Delta-compile state (see delta.go). spec is the validated spec the
	// plan was compiled from; occ the retained enumeration, nil for SQL and
	// sampled plans. Retaining the match list trades memory for Advance
	// speed — that trade is the point of the incremental compile path.
	spec *Spec
	occ  *subgraph.Occurrences
}

// CompileProfile records what one compile cost: the workload shape and the
// wall time of its two deterministic stages. It is measured unconditionally
// (a compile is milliseconds-to-minutes, four clock reads are free there),
// retained on the Plan for the life of the cache entry, and surfaced by the
// serving layer through /v2/prepare, /v1/stats and plan.compile spans. It
// is not free of the data: Participants is |P| of the sensitive relation,
// and Tuples is the exact answer of every exact count plan, since each
// tuple weighs 1. Whoever reads a profile reads those counts.
type CompileProfile struct {
	Kind          string  `json:"kind"`
	Privacy       string  `json:"privacy"`
	Participants  int     `json:"participants"`  // |P| of the sensitive relation
	Tuples        int     `json:"tuples"`        // annotated tuples (L of Theorem 6)
	Sharded       bool    `json:"sharded"`       // enumeration fanned across a pool
	BuildSeconds  float64 `json:"buildSeconds"`  // derive the sensitive K-relation
	EncodeSeconds float64 `json:"encodeSeconds"` // flatten into the LP-backed sequences
	TotalSeconds  float64 `json:"totalSeconds"`
	// Mode is "sampled" for estimator-tier plans (empty for exact plans, so
	// pre-estimator profile JSON is unchanged); Samples is their draw count.
	Mode    string `json:"mode,omitempty"`
	Samples int    `json:"samples,omitempty"`
}

// Profile returns the compile profile recorded when the plan was built.
func (p *Plan) Profile() CompileProfile { return p.profile }

// liveSet tracks the contexts of in-flight releases on one plan. The LP
// solver polls interrupted during long solves: a solve aborts only when
// every release that could consume its result has gone away — a solved
// H/G value is shared work, so one caller hanging up must not starve the
// others, but a solve nobody is waiting for should stop burning the worker.
type liveSet struct {
	mu   sync.Mutex
	next uint64
	ctxs map[uint64]context.Context
}

func newLiveSet() *liveSet { return &liveSet{ctxs: make(map[uint64]context.Context)} }

func (l *liveSet) add(ctx context.Context) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.ctxs[l.next] = ctx
	return l.next
}

func (l *liveSet) remove(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.ctxs, id)
}

// interrupted returns nil while at least one registered release is still
// live (or none are registered — solves from non-release paths run to
// completion); otherwise the first cancellation cause found.
func (l *liveSet) interrupted() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ctxs) == 0 {
		return nil
	}
	var cause error
	for _, ctx := range l.ctxs {
		err := ctx.Err()
		if err == nil {
			return nil
		}
		cause = err
	}
	return cause
}

// Compile builds the plan for spec against src: derive the sensitive
// K-relation (evaluating the SQL query or enumerating the subgraph
// workload) and flatten it into the LP-backed sequences of §5, whose
// mechanism.Efficient keeps every ladder rung it solves for all later
// releases. Caller-caused failures match ErrSpec. Everything runs
// sequentially on the calling goroutine; serving layers use CompileContext
// to spread the work over a compute pool.
func Compile(src Source, spec *Spec) (*Plan, error) {
	return CompileContext(context.Background(), src, spec, nil)
}

// CompileContext is Compile with cancellation and a shared compute pool:
// subgraph enumeration is sharded across workers (with the deterministic
// ordered merge of internal/subgraph, so the compiled plan is byte-identical
// to a sequential compile), ctx is honored between enumeration shards, and
// the plan keeps workers to fan its ladder solves during Release and Warm.
// workers == nil compiles (and later releases) sequentially.
func CompileContext(ctx context.Context, src Source, spec *Spec, workers *pool.Pool) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Mode == ModeSampled {
		p, err := compileSampled(ctx, src, spec)
		if err == nil {
			p.spec = spec // retained so Advance can fall back to a fresh compile
		}
		return p, err
	}
	csp := trace.Child(ctx, "plan.compile")
	csp.Str("kind", spec.Kind).Str("privacy", spec.Privacy())
	var fan subgraph.Fanout
	if workers != nil {
		fan = workers.Fanout(ctx)
	}
	prof := CompileProfile{Kind: spec.Kind, Privacy: spec.Privacy(), Sharded: fan != nil}
	buildName := "enumerate"
	if spec.Kind == KindSQL {
		buildName = "sql.eval"
	}
	t0 := time.Now()
	bsp := trace.StartChild(csp, buildName)
	sens, occ, err := buildSensitive(src, spec, shardSpanFan(fan, bsp))
	bsp.End()
	if err != nil {
		csp.Str("error", err.Error())
		csp.End()
		return nil, err
	}
	prof.BuildSeconds = time.Since(t0).Seconds()
	t1 := time.Now()
	esp := trace.StartChild(csp, "encode")
	seq, err := mechanism.NewEfficientFromSensitive(sens, krel.CountQuery)
	esp.End()
	if err != nil {
		csp.Str("error", err.Error())
		csp.End()
		return nil, err
	}
	prof.EncodeSeconds = time.Since(t1).Seconds()
	prof.TotalSeconds = time.Since(t0).Seconds()
	prof.Participants = seq.NumParticipants()
	prof.Tuples = seq.NumTuples()
	csp.Int("participants", int64(prof.Participants)).Int("tuples", int64(prof.Tuples))
	csp.End()
	live := newLiveSet()
	// Long H/G solves poll the live-release set, so a solve whose every
	// waiter hung up aborts instead of finishing into the ladder unobserved.
	seq.SetInterrupt(live.interrupted)
	return &Plan{
		kind:     spec.Kind,
		nodeLike: spec.nodeLike(),
		eff:      seq,
		nP:       seq.NumParticipants(),
		live:     live,
		pool:     workers,
		profile:  prof,
		spec:     spec,
		occ:      occ,
	}, nil
}

// shardSpanFan wraps an enumeration fanout so each shard records its own
// span under parent. Spans only observe: the shard boundaries, execution
// and merge order are the wrapped fanout's, unchanged, so the bit-identity
// guarantee above is untouched. With no parent (untraced compile) the
// fanout passes through with zero added machinery.
func shardSpanFan(fan subgraph.Fanout, parent *trace.Span) subgraph.Fanout {
	if fan == nil || parent == nil {
		return fan
	}
	return func(n int, task func(i int) error) error {
		return fan(n, func(i int) error {
			sp := trace.StartChild(parent, "enumerate.shard")
			sp.Int("shard", int64(i))
			err := task(i)
			sp.End()
			return err
		})
	}
}

// buildSensitive compiles the spec into the sensitive K-relation the
// mechanism releases a count of. fan, when non-nil, shards the subgraph
// enumeration; a non-nil error from it is the fanout's cancellation and is
// passed through untyped (it is not the caller's fault, so it must not
// match ErrSpec).
//
// Graph kinds enumerate through the retained constructors of
// internal/subgraph, whose match lists are byte-identical to the sequential
// enumerators; the retained structure comes back as the second result so
// the plan can Advance under dataset deltas. SQL returns a nil retention.
func buildSensitive(src Source, spec *Spec, fan subgraph.Fanout) (*krel.Sensitive, *subgraph.Occurrences, error) {
	switch spec.Kind {
	case KindSQL:
		if src.DB == nil {
			return nil, nil, specErrorf("kind %q needs a relational dataset", spec.Kind)
		}
		q := spec.parsed
		if q == nil {
			var err error
			if q, err = query.Parse(spec.Query); err != nil {
				return nil, nil, &SpecError{Reason: err.Error()}
			}
		}
		out, err := q.Eval(src.DB)
		if err != nil {
			return nil, nil, &SpecError{Reason: err.Error()}
		}
		return krel.NewSensitive(src.Universe, out), nil, nil
	case KindTriangles, KindKStars, KindKTriangles, KindPattern:
		if src.Graph == nil {
			return nil, nil, specErrorf("kind %q needs a graph dataset", spec.Kind)
		}
	default:
		return nil, nil, specErrorf("unknown kind %q", spec.Kind)
	}
	priv := subgraph.NodePrivacy
	if spec.EdgePrivacy {
		priv = subgraph.EdgePrivacy
	}
	var occ *subgraph.Occurrences
	var err error
	switch spec.Kind {
	case KindTriangles:
		occ, err = subgraph.TrianglesRetained(src.Graph, fan)
	case KindKStars:
		occ, err = subgraph.KStarsRetained(src.Graph, spec.K, fan)
	case KindKTriangles:
		occ, err = subgraph.KTrianglesRetained(src.Graph, spec.K, fan)
	default: // KindPattern
		var p subgraph.Pattern
		if p, err = spec.pattern(); err != nil {
			return nil, nil, err
		}
		occ, err = subgraph.PatternRetained(src.Graph, p, fan)
	}
	if err != nil {
		return nil, nil, err
	}
	return subgraph.BuildRelation(src.Graph, occ.Matches(), priv, nil), occ, nil
}

// NumParticipants returns |P| of the compiled sensitive relation.
func (p *Plan) NumParticipants() int { return p.nP }

// Kind returns the compiled spec's kind.
func (p *Plan) Kind() string { return p.kind }

// Solves reports how many H and G entries the plan has solved (each one LP
// solve) over its lifetime; entries carried from a predecessor generation
// are not counted. Every later ask of a solved entry is free, so this is a
// direct measure of the work repeat releases skip. Sampled plans have no LP
// state and report zero.
func (p *Plan) Solves() (h, g uint64) {
	if p.eff == nil {
		return 0, 0
	}
	return p.eff.Solves()
}

// Primed reports whether the plan holds G_{|P|}, the rung every observed
// release asks for first. A release on a plan that is not primed solves
// LPs: the plan is fresh, or Advance built it for a changed generation and
// carried no rungs. Sampled plans have no ladder and are always primed.
func (p *Plan) Primed() bool {
	if p.eff == nil {
		return true
	}
	_, ok := p.eff.Solved(false, p.nP)
	return ok
}

// Mode returns the plan's compile tier, ModeExact or ModeSampled.
func (p *Plan) Mode() string {
	if p.sampled != nil {
		return ModeSampled
	}
	return ModeExact
}

// EstimateResult returns the estimator run behind a sampled plan (estimate,
// sample design, accuracy contract). ok is false for exact plans. The
// estimate itself approximates the true answer and is as sensitive as Δ —
// only the contract and design fields may reach operator surfaces.
func (p *Plan) EstimateResult() (estimate.Result, bool) {
	if p.sampled == nil {
		return estimate.Result{}, false
	}
	return p.sampled.res, true
}

// Release draws one ε-differentially private answer from the plan: the
// mechanism of §4.1 with the experimental defaults of §6.1 (ε split evenly
// between the sensitivity proxy and the final Laplace noise, β = ε/5).
// Sequence entries already solved — by earlier releases at any ε — are
// reused; a fresh ε costs at most the O(log |P|) ladder searches worth of
// new LP solves, and typically none.
//
// ctx is checked between sequence evaluations — and, through the live-set
// interrupt, every few dozen simplex pivots *inside* a solve — so a
// canceled release aborts promptly instead of finishing a doomed LP
// ladder. A solve shared with another still-live release keeps running
// (its result is kept for everyone); the ladder keeps whatever entries
// completed, they stay valid.
func (p *Plan) Release(ctx context.Context, epsilon float64, rng *rand.Rand) (float64, error) {
	obs, err := p.release(ctx, epsilon, rng, false)
	return obs.Value, err
}

// walk is the setup every pass over a plan's ladder shares — a release or
// a Warm: the validated parameters, a Core reading the plan's Efficient
// through this pass's ctxSeq (with a span cursor when the pass is traced),
// the plan's compute pool as the Core's fanout, and the live-set entry
// that lets the pass's solves run while ctx is live. Sampled plans have no
// ladder: their walk carries the parameters only, and core is nil.
type walk struct {
	params mechanism.Params
	core   *mechanism.Core
	cur    *spanCursor
	live   *liveSet
	id     uint64 // live-set entry, removed by end
}

// startWalk validates ε and sets up one pass over the ladder. The caller
// must call end once the pass is over.
func (p *Plan) startWalk(ctx context.Context, epsilon float64) (walk, error) {
	if math.IsNaN(epsilon) || math.IsInf(epsilon, 0) || epsilon <= 0 {
		return walk{}, specErrorf("ε must be positive and finite, got %g", epsilon)
	}
	w := walk{params: mechanism.DefaultParams(epsilon, p.nodeLike)}
	if p.sampled != nil {
		return w, nil
	}
	// Allocate the cursor only when this pass is traced: on the untraced
	// hot path a nil cursor (set/get are nil-safe) keeps it allocation-free.
	if trace.FromContext(ctx) != nil {
		w.cur = &spanCursor{}
	}
	core, err := mechanism.NewCore(ctxSeq{ctx: ctx, cur: w.cur, eff: p.eff}, w.params)
	if err != nil {
		return walk{}, err
	}
	// The wave probe schedule is a constant of the mechanism, so the pool
	// changes wall-clock overlap only — never a computed value (see
	// mechanism.Core.SetFanout). A plan compiled without one stays serial.
	if p.pool != nil {
		core.SetFanout(mechanism.Fanout(p.pool.Fanout(ctx)))
	}
	w.core, w.live, w.id = core, p.live, p.live.add(ctx)
	return w, nil
}

func (w *walk) end() {
	if w.live != nil {
		w.live.remove(w.id)
	}
}

// phase runs one step of the walk under its own span, a child of parent,
// and points the cursor at that span so every LP solve the step demands
// records its lp.solve span there.
func (w *walk) phase(parent *trace.Span, name string, step func() error) error {
	sp := trace.StartChild(parent, name)
	w.cur.set(sp)
	err := step()
	w.cur.set(nil)
	sp.End()
	return err
}

// release is the shared body of Release and ReleaseObserved. With observe,
// the Theorem 1 bound for this ε comes first: it consumes no randomness,
// so the released value is bit-identical either way, and its one
// data-dependent input, G_{|P|}, is solved through the walk like every
// other rung — under the release span, honouring ctx. The bound is also
// recorded as a span attribute, so traces and the slow-query log carry the
// expected error beside the phases that produced the answer, and the
// realized noise is read off the final Laplace draw.
func (p *Plan) release(ctx context.Context, epsilon float64, rng *rand.Rand, observe bool) (ReleaseObservation, error) {
	w, err := p.startWalk(ctx, epsilon)
	if err != nil {
		return ReleaseObservation{}, err
	}
	defer w.end()
	if p.sampled != nil {
		if err := ctx.Err(); err != nil {
			return ReleaseObservation{}, err
		}
	}
	rel := trace.Child(ctx, "release")
	defer rel.End()
	var obs ReleaseObservation
	if observe {
		var perr error
		if p.sampled != nil {
			obs.Predicted = p.sampledProfile(epsilon, DefaultTail)
		} else {
			w.cur.set(rel)
			obs.Predicted, perr = w.core.Accuracy(efficientG, DefaultTail)
			w.cur.set(nil)
		}
		obs.PredictedOK = perr == nil
		if obs.PredictedOK {
			rel.Float("predictedError", obs.Predicted.Error)
		}
	}
	// The estimator tier releases its cached estimate plus one Laplace draw
	// at the sensitivity cap. The exact tier runs exactly
	// mechanism.Core.Release — Δ̂ draw, X minimization, final Laplace, in
	// that order, consuming the same two rng draws — driven here so each
	// phase gets its own span. Spans only observe; the determinism tests
	// pin the released values against Core.Release, so this duplication
	// cannot drift silently.
	var x, scale float64
	if p.sampled != nil {
		rel.Str("mode", ModeSampled)
		x, scale = p.sampled.res.Estimate, p.sampled.cap/epsilon
	} else {
		var deltaHat float64
		if err := w.phase(rel, "delta.search", func() (err error) {
			deltaHat, err = w.core.NoisyDelta(rng)
			return err
		}); err != nil {
			return ReleaseObservation{}, err
		}
		if err := w.phase(rel, "x.search", func() (err error) {
			x, err = w.core.XGiven(deltaHat)
			return err
		}); err != nil {
			return ReleaseObservation{}, err
		}
		scale = deltaHat / w.params.Epsilon2
	}
	nsp := trace.StartChild(rel, "noise.draw")
	lap := noise.Laplace(rng, scale)
	obs.Value = x + lap
	nsp.End()
	obs.NoiseMagnitude = math.Abs(lap)
	rel.Float("noiseMagnitude", obs.NoiseMagnitude)
	return obs, nil
}

// Warm materializes the release path's sequence state for ε without
// drawing any noise: it runs the Δ ladder search of Eq. 11 (the binary
// search's G probes) and the X minimization of Eq. 12 at the µ-biased
// center Δ̂ = e^µ·Δ of the noisy-Δ distribution, so those entries are
// solved. Nothing is released and zero ε is spent — everything computed
// is deterministic, non-private state that never leaves the plan. A
// release at (or near) this ε afterwards typically finds every probe
// solved and pays only the noise draws. A sampled plan's release is one
// Laplace draw over the cached estimate, so there is nothing to warm.
func (p *Plan) Warm(ctx context.Context, epsilon float64) error {
	w, err := p.startWalk(ctx, epsilon)
	if err != nil || p.sampled != nil {
		return err
	}
	defer w.end()
	wsp := trace.Child(ctx, "plan.warm")
	defer wsp.End()
	var delta float64
	if err := w.phase(wsp, "delta.search", func() (err error) {
		delta, err = w.core.Delta()
		return err
	}); err != nil {
		return err
	}
	return w.phase(wsp, "x.search", func() error {
		_, err := w.core.XGiven(math.Exp(w.params.Mu) * delta)
		return err
	})
}

// spanCursor publishes "the phase span LP solves should parent under right
// now". The release goroutine stores it at each phase boundary; fanned-out
// wave workers load it when a probe turns into an LP solve. An atomic
// pointer, because the loaders run on pool workers while the owner is the
// release goroutine — a data race detector-clean handoff, and a nil load
// (no phase active, or an untraced release) simply records no span.
type spanCursor struct{ p atomic.Pointer[trace.Span] }

func (c *spanCursor) set(s *trace.Span) {
	if c == nil {
		return
	}
	c.p.Store(s)
}

func (c *spanCursor) get() *trace.Span {
	if c == nil {
		return nil
	}
	return c.p.Load()
}

// ctxSeq threads one release's context through the Sequences interface to
// the plan's Efficient: each H/G access first checks for cancellation,
// giving long LP ladders a cooperative abort point without the mechanism
// knowing about contexts, and a rung about to be solved records an
// lp.solve span under the phase the cursor points at. Its Lookup serves the
// rungs the Efficient already holds, but reports nothing once ctx is done,
// so a canceled release still stops at its next probe.
type ctxSeq struct {
	ctx context.Context
	cur *spanCursor
	eff *mechanism.Efficient
}

func (s ctxSeq) NumParticipants() int { return s.eff.NumParticipants() }

func (s ctxSeq) H(i int) (float64, error) { return s.get(true, i) }

func (s ctxSeq) G(i int) (float64, error) { return s.get(false, i) }

func (s ctxSeq) Solved(isH bool, i int) (float64, bool) {
	if s.ctx.Err() != nil {
		return 0, false
	}
	return s.eff.Solved(isH, i)
}

func (s ctxSeq) get(isH bool, i int) (float64, error) {
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	if v, ok := s.eff.Solved(isH, i); ok {
		return v, nil
	}
	sp := trace.StartChild(s.cur.get(), "lp.solve")
	seq, solve := "g", s.eff.GInfo
	if isH {
		seq, solve = "h", s.eff.HInfo
	}
	v, info, err := solve(i)
	if sp != nil {
		sp.Str("seq", seq).Int("i", int64(i)).
			Int("pivots", int64(info.Pivots)).Int("rows", int64(info.Rows)).Int("cols", int64(info.Cols)).
			Str("warm", info.Warm.String())
		if err != nil {
			sp.Str("error", err.Error())
		}
		sp.End()
	}
	return v, err
}
