package plan

import (
	"context"
	"sync/atomic"
	"time"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/krel"
	"recmech/internal/mechanism"
	"recmech/internal/pool"
	"recmech/internal/subgraph"
	"recmech/internal/trace"
)

// This file is the delta-compile path: Plan.Advance derives the plan of a
// dataset's next micro-generation from its predecessor instead of compiling
// cold. Three layers of retained work make the derivation cheap:
//
//   - enumeration: only the dirty units of the fixed range shards re-run
//     (subgraph.Occurrences.Advance), clean units splice back in;
//   - encoding: under node privacy the boolexpr variable of node v is stable
//     across generations (BuildRelation pre-populates the universe in node
//     order), so a surviving occurrence's tuple encode — annotation and
//     φ-sensitivity map — is adopted verbatim;
//   - LP ladder: when the delta changed nothing the workload can see, the
//     predecessor's solved H/G rungs carry over wholesale into the new
//     generation's Efficient (mechanism.Efficient.CarryValues). Otherwise
//     the new generation re-solves its whole ladder, warm-started only from
//     its own solves: a predecessor's bases fit the old LP's shape, so the
//     solver would discard them and run cold.
//
// The contract is bit-identity: a plan produced by Advance releases exactly
// what a cold CompileContext at the same generation releases. Every splice
// whose preconditions cannot be proven cheaply — sampled tier, SQL, a
// tuple/match misalignment from canonical-key collisions — falls back to a
// full recompile and says so in the profile (discard-and-recompile, counted).

// Delta is one dataset append: edges added relative to the plan's compiled
// generation. The target graph in Advance's Source must already contain
// them. Relational appends have no incremental path (SQL plans recompile),
// so a Delta carries no rows.
type Delta struct {
	Added []graph.Edge
}

// AdvanceProfile records what one Advance reused and what it recomputed —
// the delta-compile analogue of CompileProfile, surfaced by the serving
// layer's metrics and stats. Like CompileProfile it carries counts of the
// data: TuplesReused+TuplesEncoded is the new generation's tuple count (an
// exact count plan's answer), and Identical says whether the delta
// touched the workload's sensitive relation at all.
type AdvanceProfile struct {
	// Fallback reports that the plan was recompiled from scratch; Reason
	// says why ("sampled", "sql", "no-retained-state", "tuple-alignment").
	Fallback bool   `json:"fallback,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Identical reports the delta changed nothing this workload observes;
	// the predecessor's solved H/G values carried over wholesale.
	Identical bool `json:"identical,omitempty"`

	UnitsTotal  int `json:"unitsTotal"`
	UnitsDirty  int `json:"unitsDirty"`
	ShardsTotal int `json:"shardsTotal"`
	ShardsDirty int `json:"shardsDirty"`

	TuplesReused  int `json:"tuplesReused"`
	TuplesEncoded int `json:"tuplesEncoded"`

	ValuesCarried int `json:"valuesCarried"` // solved H/G values copied (identical generations only)

	TotalSeconds float64 `json:"totalSeconds"`
}

// Package-wide delta-compile counters, mirrored into recmech_delta_compile_*
// by the serving layer's metrics registry.
var (
	deltaAdvances      atomic.Uint64
	deltaFallbacks     atomic.Uint64
	deltaIdentical     atomic.Uint64
	deltaTuplesReused  atomic.Uint64
	deltaTuplesEncoded atomic.Uint64
	deltaValuesCarried atomic.Uint64
	deltaUnitsTotal    atomic.Uint64
	deltaUnitsDirty    atomic.Uint64
)

// DeltaCounters is a snapshot of the process-wide delta-compile counters.
type DeltaCounters struct {
	Advances      uint64 `json:"advances"`  // Advance calls that derived the plan incrementally
	Fallbacks     uint64 `json:"fallbacks"` // Advance calls that recompiled from scratch
	Identical     uint64 `json:"identical"` // advances whose delta changed nothing the workload sees
	TuplesReused  uint64 `json:"tuplesReused"`
	TuplesEncoded uint64 `json:"tuplesEncoded"`
	ValuesCarried uint64 `json:"valuesCarried"`
	UnitsTotal    uint64 `json:"unitsTotal"`
	UnitsDirty    uint64 `json:"unitsDirty"`
}

// ReadDeltaCounters snapshots the process-wide delta-compile counters.
func ReadDeltaCounters() DeltaCounters {
	return DeltaCounters{
		Advances:      deltaAdvances.Load(),
		Fallbacks:     deltaFallbacks.Load(),
		Identical:     deltaIdentical.Load(),
		TuplesReused:  deltaTuplesReused.Load(),
		TuplesEncoded: deltaTuplesEncoded.Load(),
		ValuesCarried: deltaValuesCarried.Load(),
		UnitsTotal:    deltaUnitsTotal.Load(),
		UnitsDirty:    deltaUnitsDirty.Load(),
	}
}

// Spec returns the validated spec the plan was compiled from.
func (p *Plan) Spec() *Spec { return p.spec }

// Advance derives the plan for the next generation of the plan's dataset:
// src is the new generation (its graph must already include delta.Added) and
// the result is bit-identical to CompileContext(ctx, src, p.Spec(), workers)
// — same matches, same LP encoding, same release values — at a fraction of
// the cost when the delta is small. The receiver is not mutated and stays
// valid for its own generation.
//
// Plans without an incremental path (sampled tier, SQL, or a workload whose
// canonical match keys collide so per-tuple reuse cannot be proven) fall
// back to a fresh compile; the profile reports it and the fallback counter
// counts it. The result is correct either way.
func (p *Plan) Advance(ctx context.Context, src Source, delta Delta, workers *pool.Pool) (*Plan, AdvanceProfile, error) {
	t0 := time.Now()
	asp := trace.Child(ctx, "plan.advance")
	if p.spec != nil {
		asp.Str("kind", p.spec.Kind).Str("privacy", p.spec.Privacy())
	}
	fallback := func(reason string) (*Plan, AdvanceProfile, error) {
		deltaFallbacks.Add(1)
		asp.Str("fallback", reason)
		np, err := CompileContext(ctx, src, p.spec, workers)
		if err != nil {
			asp.Str("error", err.Error())
			asp.End()
			return nil, AdvanceProfile{}, err
		}
		prof := AdvanceProfile{Fallback: true, Reason: reason, TotalSeconds: time.Since(t0).Seconds()}
		asp.End()
		return np, prof, nil
	}
	switch {
	case p.spec == nil:
		asp.End()
		return nil, AdvanceProfile{}, specErrorf("plan retains no spec; cannot advance")
	case p.sampled != nil:
		return fallback("sampled")
	case p.kind == KindSQL:
		return fallback("sql")
	case p.occ == nil || p.eff == nil:
		return fallback("no-retained-state")
	}
	if src.Graph == nil {
		asp.End()
		return nil, AdvanceProfile{}, specErrorf("kind %q needs a graph dataset", p.kind)
	}

	var fan subgraph.Fanout
	if workers != nil {
		fan = workers.Fanout(ctx)
	}
	esp := trace.StartChild(asp, "enumerate.delta")
	occ2, info, err := p.occ.Advance(src.Graph, delta.Added, shardSpanFan(fan, esp))
	esp.End()
	if err != nil {
		asp.Str("error", err.Error())
		asp.End()
		return nil, AdvanceProfile{}, err
	}
	enumSeconds := time.Since(t0).Seconds()

	prof := AdvanceProfile{
		Identical:   info.Identical,
		UnitsTotal:  info.UnitsTotal,
		UnitsDirty:  info.UnitsDirty,
		ShardsTotal: info.ShardsTotal,
		ShardsDirty: info.ShardsDirty,
	}

	t1 := time.Now()
	ssp := trace.StartChild(asp, "encode.delta")
	var seq2 *mechanism.Efficient
	nP2 := src.Graph.NumNodes()
	if p.spec.EdgePrivacy {
		// Edge privacy: participant variables are edge-indexed and an edge
		// insert shifts the universe, so per-tuple encodes cannot carry
		// across generations — the enumeration reuse above is the whole win
		// and the encode runs fresh over the spliced match list.
		nP2 = src.Graph.NumEdges()
		sens := subgraph.BuildRelation(src.Graph, occ2.Matches(), subgraph.EdgePrivacy, nil)
		seq2, err = mechanism.NewEfficientFromSensitive(sens, krel.CountQuery)
		if err != nil {
			ssp.End()
			asp.Str("error", err.Error())
			asp.End()
			return nil, AdvanceProfile{}, err
		}
		prof.TuplesEncoded = seq2.NumTuples()
	} else {
		// Node privacy: node v's variable is stable across generations, so
		// each surviving occurrence adopts its predecessor's encode and only
		// occurrences without one are encoded fresh. Reuse is only provable
		// when retained tuples align 1:1 with retained matches — canonical
		// match keys that collide (a k-triangle's edge set can arise from
		// several base edges) make BuildRelation merge tuples, breaking the
		// alignment; those plans recompile instead.
		oldEnc := p.eff.EncodedTuples()
		canCollide := p.kind == KindKStars || p.kind == KindKTriangles
		if len(oldEnc) != len(p.occ.Matches()) || (canCollide && dupKeys(occ2)) {
			ssp.End()
			return fallback("tuple-alignment")
		}
		matches2 := occ2.Matches()
		enc2 := make([]mechanism.EncodedTuple, len(matches2))
		for i, m := range matches2 {
			if r := info.Reuse[i]; r >= 0 {
				enc2[i] = oldEnc[r]
				prof.TuplesReused++
				continue
			}
			vars := make([]boolexpr.Var, len(m.Nodes))
			for j, v := range m.Nodes {
				vars[j] = boolexpr.Var(v)
			}
			enc2[i] = mechanism.EncodeTuple(krel.Annotated{Weight: 1, Ann: boolexpr.Conj(vars...)})
			prof.TuplesEncoded++
		}
		seq2, err = mechanism.NewEfficientEncoded(nP2, enc2)
		if err != nil {
			ssp.End()
			asp.Str("error", err.Error())
			asp.End()
			return nil, AdvanceProfile{}, err
		}
	}
	ssp.End()
	encodeSeconds := time.Since(t1).Seconds()

	live := newLiveSet()
	seq2.SetInterrupt(live.interrupted)
	// Solved H/G values carry over only when the generations are provably
	// the same computation: identical match list over an identical
	// participant universe.
	if info.Identical && nP2 == p.nP {
		prof.ValuesCarried = seq2.CarryValues(p.eff)
	}
	prof.TotalSeconds = time.Since(t0).Seconds()

	np := &Plan{
		kind:     p.kind,
		nodeLike: p.spec.nodeLike(),
		eff:      seq2,
		nP:       nP2,
		live:     live,
		pool:     workers,
		profile: CompileProfile{
			Kind:          p.spec.Kind,
			Privacy:       p.spec.Privacy(),
			Participants:  nP2,
			Tuples:        seq2.NumTuples(),
			Sharded:       fan != nil,
			BuildSeconds:  enumSeconds,
			EncodeSeconds: encodeSeconds,
			TotalSeconds:  prof.TotalSeconds,
		},
		spec: p.spec,
		occ:  occ2,
	}
	deltaAdvances.Add(1)
	if info.Identical {
		deltaIdentical.Add(1)
	}
	deltaTuplesReused.Add(uint64(prof.TuplesReused))
	deltaTuplesEncoded.Add(uint64(prof.TuplesEncoded))
	deltaValuesCarried.Add(uint64(prof.ValuesCarried))
	deltaUnitsTotal.Add(uint64(info.UnitsTotal))
	deltaUnitsDirty.Add(uint64(info.UnitsDirty))
	asp.Int("unitsDirty", int64(info.UnitsDirty)).Int("unitsTotal", int64(info.UnitsTotal)).
		Int("tuplesReused", int64(prof.TuplesReused))
	asp.End()
	return np, prof, nil
}

// dupKeys reports whether the new generation's final match list carries a
// repeated canonical key, which would make a cold BuildRelation merge tuples
// while the splice above would not. Only k-star and k-triangle edge sets can
// repeat (a single edge is the 1-star of both endpoints; a k-triangle's edge
// set can arise from several base edges), so only those kinds pay the scan;
// triangles are distinct edge sets and pattern lists are globally deduped by
// key already.
func dupKeys(o *subgraph.Occurrences) bool {
	ms := o.Matches()
	seen := make(map[string]struct{}, len(ms))
	for _, m := range ms {
		k := m.Key()
		if _, ok := seen[k]; ok {
			return true
		}
		seen[k] = struct{}{}
	}
	return false
}
