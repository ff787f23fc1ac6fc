package service

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"recmech/internal/estimate"
	"recmech/internal/plan"
)

// Query kinds accepted by the service (aliases of the plan package's kind
// strings, which own the workload semantics).
const (
	KindSQL        = plan.KindSQL        // SQL-like query against a relational dataset
	KindTriangles  = plan.KindTriangles  // triangle count on a graph dataset
	KindKStars     = plan.KindKStars     // k-star count (K required)
	KindKTriangles = plan.KindKTriangles // k-triangle count (K required)
	KindPattern    = plan.KindPattern    // arbitrary connected pattern count
)

// Workload size ceilings, owned by internal/plan (see the rationale there).
const (
	MaxK            = plan.MaxK
	MaxPatternNodes = plan.MaxPatternNodes
	MaxPatternEdges = plan.MaxPatternEdges
)

// Compile modes accepted on the wire. ModeAuto is resolved against the
// dataset (resolveMode) before anything keyed on the workload happens; the
// plan layer only ever sees exact or sampled.
const (
	ModeAuto    = "auto"
	ModeExact   = plan.ModeExact
	ModeSampled = plan.ModeSampled
)

// Request is one differentially private query. Exactly the fields relevant
// to Kind must be set; Epsilon ≤ 0 takes the server's default.
type Request struct {
	Dataset string `json:"dataset"`
	Kind    string `json:"kind"`

	Query string `json:"query,omitempty"` // sql: the query text

	K            int      `json:"k,omitempty"`            // kstars/ktriangles: the k
	PatternNodes int      `json:"patternNodes,omitempty"` // pattern: node count
	PatternEdges [][2]int `json:"patternEdges,omitempty"` // pattern: edges on 0..patternNodes-1

	Privacy string  `json:"privacy,omitempty"` // "node" (default) or "edge"; graph kinds only
	Epsilon float64 `json:"epsilon,omitempty"` // privacy budget for this release

	// Mode selects the compile tier for graph kinds: "exact" (exhaustive
	// enumeration + the full recursive mechanism), "sampled" (the estimator
	// tier of internal/estimate), or "auto"/"" (the server picks by dataset
	// size against its -estimate-threshold). SQL always compiles exactly;
	// asking for "sampled" there is a typed invalid_mode rejection.
	Mode string `json:"mode,omitempty"`
	// Samples overrides the estimator's sample budget in sampled mode
	// (0 = the server's -estimate-samples default). Part of the workload's
	// cache identity: different budgets are different computations.
	Samples int `json:"samples,omitempty"`

	// spec is the validated plan.Spec compiled by normalize: the canonical
	// workload identity (with the SQL parse tree cached), shared by the
	// cache keys and the executor so the text is lexed once per request.
	spec *plan.Spec
	// pkey caches the derived plan-cache key (see ensurePlanKey): the
	// serving layer consults it twice per request — once deciding whether
	// to trace, once fetching the plan — and deriving it twice would put
	// an extra formatting allocation on the hot path.
	pkey string
}

// Response is one differentially private answer. Only already-released
// values appear here — never the true answer or the sensitivity proxy Δ,
// which are not private.
type Response struct {
	Dataset string  `json:"dataset"`
	Kind    string  `json:"kind"`
	Value   float64 `json:"value"`   // the ε-DP answer
	Epsilon float64 `json:"epsilon"` // ε charged when the release was produced
	// Cached reports that this reply replayed a recorded release (or joined
	// an in-flight identical query) and therefore cost zero additional ε.
	Cached bool `json:"cached"`
	// RemainingBudget is the dataset's unreserved ε after this reply.
	RemainingBudget float64 `json:"remainingBudget"`
	// Mode is "sampled" when the answer came from the estimator tier
	// (omitted for exact releases, so pre-estimator recorded payloads and
	// exact-mode responses are byte-identical to earlier versions). A
	// replayed response reports the mode of the recorded release — the
	// sampled segment in the cache key guarantees it matches the request's.
	Mode string `json:"mode,omitempty"`
}

// normalize validates the request in place, lowercasing the enum-ish fields,
// substituting defaults, and compiling the workload spec (which parses SQL
// exactly once). All failures match ErrBadRequest.
func (r *Request) normalize(cfg Config) error {
	r.Dataset = canonName(r.Dataset)
	r.Kind = strings.ToLower(strings.TrimSpace(r.Kind))
	r.Privacy = strings.ToLower(strings.TrimSpace(r.Privacy))
	if r.Dataset == "" {
		return badRequestf("dataset is required")
	}
	if r.Epsilon == 0 {
		r.Epsilon = cfg.DefaultEpsilon
	}
	// NaN compares false with everything, so "<= 0" alone would let a NaN
	// ε through validation and poison the ledger.
	if math.IsNaN(r.Epsilon) || math.IsInf(r.Epsilon, 0) || r.Epsilon <= 0 {
		return badRequestf("epsilon must be positive and finite, got %g", r.Epsilon)
	}
	if cfg.MaxEpsilon > 0 && r.Epsilon > cfg.MaxEpsilon {
		return badRequestf("epsilon %g exceeds the per-query ceiling %g", r.Epsilon, cfg.MaxEpsilon)
	}
	switch r.Privacy {
	case "", "node":
		r.Privacy = "node"
	case "edge":
	default:
		return badRequestf("privacy must be \"node\" or \"edge\", got %q", r.Privacy)
	}
	r.Mode = strings.ToLower(strings.TrimSpace(r.Mode))
	switch r.Mode {
	case "":
		r.Mode = ModeAuto
	case ModeAuto, ModeExact:
	case ModeSampled:
		if r.Kind == KindSQL {
			return modeErrorf("mode %q applies to graph kinds only; kind %q always compiles exactly", ModeSampled, KindSQL)
		}
	default:
		return modeErrorf("mode must be %q, %q or %q, got %q", ModeAuto, ModeExact, ModeSampled, r.Mode)
	}
	if r.Samples != 0 && r.Mode == ModeExact {
		return modeErrorf("samples applies to mode %q only", ModeSampled)
	}
	if r.Samples < 0 || r.Samples > estimate.MaxSamples {
		return modeErrorf("samples must be in [0, %d], got %d", estimate.MaxSamples, r.Samples)
	}
	spec := &plan.Spec{
		Kind:         r.Kind,
		Query:        r.Query,
		K:            r.K,
		PatternNodes: r.PatternNodes,
		PatternEdges: r.PatternEdges,
		EdgePrivacy:  r.Privacy == "edge",
	}
	if err := spec.Validate(); err != nil {
		return asRequestError(err)
	}
	r.spec = spec
	return nil
}

// resolveMode decides the compile tier once the dataset is known, turning
// the wire-level "auto" into exact or sampled and stamping the decision
// (and the resolved sample budget) onto the workload spec — which is what
// the cache keys derive from, so a sampled estimate can never replay as an
// exact answer or vice versa. Must run after normalize and before any
// cacheKey/ensurePlanKey derivation.
//
// Auto samples exactly when the dataset is a graph at least
// cfg.EstimateThreshold edges large (threshold ≤ 0 disables auto-sampling).
// Relational datasets always compile exactly — normalize already rejected
// an explicit sampled request against KindSQL, and a graph-kind request
// against a relational dataset fails in the compiler with its usual typed
// error, so stamping exact here is never wrong.
func (r *Request) resolveMode(ds *Dataset, cfg Config) {
	mode := r.Mode
	if ds.Graph == nil {
		mode = ModeExact
	} else if mode == ModeAuto {
		if cfg.EstimateThreshold > 0 && ds.Graph.NumEdges() >= cfg.EstimateThreshold {
			mode = ModeSampled
		} else {
			mode = ModeExact
		}
	}
	r.Mode = mode
	if mode == ModeSampled {
		r.spec.Mode = plan.ModeSampled
		if r.Samples > 0 {
			r.spec.SampleBudget = r.Samples
		} else {
			r.spec.SampleBudget = cfg.EstimateSamples
		}
	} else {
		r.spec.Mode = plan.ModeExact
		r.spec.SampleBudget = 0
	}
}

// asRequestError converts a caller-caused plan failure into the service's
// typed 400; anything else passes through unchanged.
func asRequestError(err error) error {
	var se *plan.SpecError
	if errors.As(err, &se) {
		return badRequestf("%s", se.Reason)
	}
	return err
}

// genTag separates durable and in-memory snapshot namespaces in cache keys:
// a flag-loaded dataset's per-boot gen 1 and a later upload's store version
// 1 are different data and must never share a recorded release or a plan.
func genTag(ds *Dataset) string {
	if ds.Durable {
		return "@v"
	}
	return "#"
}

// cacheKey derives the release-cache key: two requests share a key exactly
// when they would replay the same recorded release — same dataset snapshot
// (name and generation), same canonicalized query, same privacy model and
// budget. SQL text is canonicalized through the parser, so formatting and
// keyword-case differences still hit the cache.
//
// The format is part of the durable store's release journal and must stay
// byte-identical across versions, or persisted releases stop replaying.
func (r *Request) cacheKey(ds *Dataset) (string, error) {
	detail, err := r.spec.Detail()
	if err != nil {
		return "", asRequestError(err)
	}
	return fmt.Sprintf("%s%s%d|%s|%s|eps=%.17g|%s", ds.Name, genTag(ds), ds.Gen, r.Kind, r.Privacy, r.Epsilon, detail), nil
}

// ensurePlanKey derives the plan-cache key — the cache key minus ε, because
// a plan materializes only the deterministic, ε-independent state — caching
// it on the request so repeated consultations within one serving pass cost
// nothing. The key is in-memory only (never persisted), so its format is
// free to change. A Request is owned by one serving goroutine (Query and the
// job runner each copy before calling do), so the cache field needs no
// synchronization.
func (r *Request) ensurePlanKey(ds *Dataset) (string, error) {
	if r.pkey != "" {
		return r.pkey, nil
	}
	k, err := r.spec.Key()
	if err != nil {
		return "", asRequestError(err)
	}
	r.pkey = fmt.Sprintf("%s%s%d|%s", ds.Name, genTag(ds), ds.Gen, k)
	return r.pkey, nil
}
