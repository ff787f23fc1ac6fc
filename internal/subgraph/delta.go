package subgraph

import (
	"fmt"
	"sort"

	"recmech/internal/graph"
)

// This file is the incremental half of the enumeration engine: a retained
// enumeration remembers, per range-shard unit, which occurrences it produced
// against one graph generation, so an appended edge delta can re-enumerate
// only the dirty units of the dirty shards and splice every clean unit's
// retained output back in — byte-identical to a fresh enumeration of the new
// generation, because every enumerator's output is the concatenation of its
// per-unit outputs in unit order (pattern search additionally re-runs its
// global first-discovery-wins dedup over the spliced per-root lists). The
// retained constructors are also the package's one sharded engine: a fresh
// compile builds its match list through them.

// occKind enumerates the workloads whose enumeration can be retained across
// dataset generations.
type occKind int8

const (
	occTriangles occKind = iota
	occKStars
	occKTriangles
	occPattern
)

// Occurrences is one generation's retained enumeration: the final match list
// plus the per-unit structure needed to advance it under an edge delta. A
// unit is one index of the corresponding enumerator's outer loop — a
// smallest vertex for triangles, a center for k-stars, a sorted-edge-list
// index for k-triangles, a root for pattern search. Values are immutable
// once built; Advance returns a new Occurrences and never mutates the old.
type Occurrences struct {
	kind occKind
	k    int
	pat  Pattern

	n     int          // |V| of the retained generation
	edges []graph.Edge // k-triangles only: the sorted edge list (the unit domain)

	off  []int    // prefix offsets: unit u's raw matches are raw[off[u]:off[u+1]]
	raw  []Match  // per-unit concatenation in unit order (pre-dedup for patterns)
	keys []string // patterns only: dedup keys parallel to raw

	matches   []Match  // final match list (raw itself, globally deduped for patterns)
	finalKeys []string // patterns only: dedup keys parallel to matches
}

// AdvanceInfo reports what an Advance reused and what it recomputed.
type AdvanceInfo struct {
	// UnitsTotal and UnitsDirty count enumeration units in the new
	// generation's domain; ShardsTotal and ShardsDirty lift that to the
	// fixed range shards (a shard is dirty iff it contains a dirty unit,
	// and only dirty shards are re-entered at all).
	UnitsTotal  int
	UnitsDirty  int
	ShardsTotal int
	ShardsDirty int
	// Reuse maps each new final-match index to the old final-match index
	// denoting the same occurrence, or -1 for an occurrence with no
	// predecessor. Clean-unit entries are exact by construction; dirty-unit
	// entries are recovered by per-unit canonical-key lookup.
	Reuse []int
	// Identical reports that the new match list is element-wise the same
	// occurrence sequence as the old one (the delta changed nothing this
	// workload can see).
	Identical bool
}

// TrianglesRetained enumerates triangles like Triangles, sharded under fan,
// while retaining the per-unit structure needed to Advance under edge
// appends. A non-nil error is the fanout's own (cancellation).
func TrianglesRetained(g *graph.Graph, fan Fanout) (*Occurrences, error) {
	return retain(&Occurrences{kind: occTriangles, n: g.NumNodes()}, g, fan)
}

// KStarsRetained is the retained, sharded KStars.
func KStarsRetained(g *graph.Graph, k int, fan Fanout) (*Occurrences, error) {
	if k < 1 {
		panic("subgraph: k-star needs k ≥ 1")
	}
	return retain(&Occurrences{kind: occKStars, k: k, n: g.NumNodes()}, g, fan)
}

// KTrianglesRetained is the retained, sharded KTriangles.
func KTrianglesRetained(g *graph.Graph, k int, fan Fanout) (*Occurrences, error) {
	if k < 1 {
		panic("subgraph: k-triangle needs k ≥ 1")
	}
	o := &Occurrences{kind: occKTriangles, k: k, n: g.NumNodes(), edges: g.Edges()}
	return retain(o, g, fan)
}

// PatternRetained is the retained, sharded FindMatches(g, p, 0). Retention
// runs the search once per root so the per-root raw lists can be spliced
// individually when a delta dirties a subset of roots; the global dedup then
// reproduces the sequential first-discovery-wins order exactly.
func PatternRetained(g *graph.Graph, p Pattern, fan Fanout) (*Occurrences, error) {
	return retain(&Occurrences{kind: occPattern, pat: p, n: g.NumNodes()}, g, fan)
}

// Matches returns the final match list — byte-identical to the corresponding
// sequential enumerator's output (nil for empty, same element order).
func (o *Occurrences) Matches() []Match { return o.matches }

// NumUnits returns the size of the retained unit domain.
func (o *Occurrences) NumUnits() int { return o.units() }

func (o *Occurrences) units() int {
	if o.kind == occKTriangles {
		return len(o.edges)
	}
	return o.n
}

// unitOut is one unit's enumeration output.
type unitOut struct {
	matches []Match
	keys    []string // patterns only
}

// enumUnit runs one unit of o's enumeration against g — exactly one outer
// iteration of the corresponding range enumerator, so concatenating unit
// outputs in unit order reproduces the full range output.
func (o *Occurrences) enumUnit(g *graph.Graph, edges []graph.Edge, mt *matcher, u int) unitOut {
	switch o.kind {
	case occTriangles:
		return unitOut{matches: trianglesRange(g, u, u+1)}
	case occKStars:
		return unitOut{matches: kStarsRange(g, o.k, u, u+1)}
	case occKTriangles:
		return unitOut{matches: kTrianglesRange(g, o.k, edges[u:u+1])}
	default:
		m, k := mt.run(u, u+1, 0)
		return unitOut{matches: m, keys: k}
	}
}

// retain enumerates every unit of o's domain against g and assembles the
// retained structure.
func retain(o *Occurrences, g *graph.Graph, fan Fanout) (*Occurrences, error) {
	units := o.units()
	per := make([]unitOut, units)
	var mt *matcher
	if o.kind == occPattern {
		mt = newMatcher(g, o.pat)
	}
	if err := eachUnitSharded(fan, units, nil, func(u int) {
		per[u] = o.enumUnit(g, o.edges, mt, u)
	}); err != nil {
		return nil, err
	}
	o.assemble(per)
	return o, nil
}

// eachUnitSharded runs f(u) over the unit domain, batched into enumShards
// fixed range shards (concurrently under fan, inline when fan is nil). A
// non-nil error is the fanout's own (cancellation); the partial work is
// discarded. dirty, when non-nil, restricts the visit to the marked units —
// shards containing none are skipped entirely, so a delta recompute touches
// only the dirty shards. f must be safe to call concurrently for distinct u.
func eachUnitSharded(fan Fanout, units int, dirty []bool, f func(u int)) error {
	run := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if dirty == nil || dirty[u] {
				f(u)
			}
		}
	}
	if fan == nil || units < 2 {
		run(0, units)
		return nil
	}
	shards := enumShards
	if shards > units {
		shards = units
	}
	type span struct{ lo, hi int }
	var spans []span
	for s := 0; s < shards; s++ {
		lo, hi := s*units/shards, (s+1)*units/shards
		want := dirty == nil
		for u := lo; !want && u < hi; u++ {
			want = dirty[u]
		}
		if want {
			spans = append(spans, span{lo, hi})
		}
	}
	return fan(len(spans), func(i int) error {
		run(spans[i].lo, spans[i].hi)
		return nil
	})
}

// assemble folds per-unit outputs into the retained structure, preserving
// the empty-is-nil convention of the sequential enumerators.
func (o *Occurrences) assemble(per []unitOut) {
	units := len(per)
	o.off = make([]int, units+1)
	total := 0
	for u := range per {
		o.off[u] = total
		total += len(per[u].matches)
	}
	o.off[units] = total
	if total == 0 {
		return
	}
	raw := make([]Match, 0, total)
	for _, p := range per {
		raw = append(raw, p.matches...)
	}
	o.raw = raw
	if o.kind != occPattern {
		o.matches = raw
		return
	}
	keys := make([]string, 0, total)
	for _, p := range per {
		keys = append(keys, p.keys...)
	}
	o.keys = keys
	o.matches, o.finalKeys = dedupMatches(raw, keys)
}

// dedupMatches replays the global first-discovery-wins dedup over the
// per-root raw lists, returning the final matches with their keys.
func dedupMatches(raw []Match, keys []string) ([]Match, []string) {
	seen := make(map[string]struct{}, len(raw))
	out := make([]Match, 0, len(raw))
	fk := make([]string, 0, len(raw))
	for i, m := range raw {
		if _, dup := seen[keys[i]]; dup {
			continue
		}
		seen[keys[i]] = struct{}{}
		out = append(out, m)
		fk = append(fk, keys[i])
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, fk
}

// Advance derives the retained enumeration of g2 — the old generation plus
// the appended edges — recomputing only units whose output the delta can
// change and splicing every other unit's retained matches. added must be
// exactly the edges present in g2 but not in the retained generation
// (supersets are safe but waste work; omissions are a contract violation
// and break the byte-identity guarantee). Node growth is allowed; edge or
// node removal is not.
func (o *Occurrences) Advance(g2 *graph.Graph, added []graph.Edge, fan Fanout) (*Occurrences, *AdvanceInfo, error) {
	if g2.NumNodes() < o.n {
		return nil, nil, fmt.Errorf("subgraph: delta shrank the node count (%d -> %d)", o.n, g2.NumNodes())
	}
	adds := normalizeAdded(added)
	for _, e := range adds {
		if e.U < 0 || e.V >= g2.NumNodes() {
			return nil, nil, fmt.Errorf("subgraph: delta edge (%d,%d) out of range [0,%d)", e.U, e.V, g2.NumNodes())
		}
	}

	n2 := &Occurrences{kind: o.kind, k: o.k, pat: o.pat, n: g2.NumNodes()}
	if o.kind == occKTriangles {
		n2.edges = g2.Edges()
	}
	units2 := n2.units()
	dirty := o.dirtyUnits(g2, n2.edges, adds, units2)
	unitsDirty := 0
	for _, d := range dirty {
		if d {
			unitsDirty++
		}
	}
	shardsTotal, shardsDirty := shardStats(units2, dirty)
	info := &AdvanceInfo{
		UnitsTotal:  units2,
		UnitsDirty:  unitsDirty,
		ShardsTotal: shardsTotal,
		ShardsDirty: shardsDirty,
	}

	per := make([]unitOut, units2)
	if unitsDirty > 0 {
		var mt *matcher
		if o.kind == occPattern {
			mt = newMatcher(g2, o.pat)
		}
		if err := eachUnitSharded(fan, units2, dirty, func(u int) {
			per[u] = n2.enumUnit(g2, n2.edges, mt, u)
		}); err != nil {
			return nil, nil, err
		}
	}
	// Clean units splice their retained output. A clean unit with no
	// predecessor (a grown node index) is provably empty: any occurrence it
	// owned would involve an added edge, which would have dirtied it.
	for u := 0; u < units2; u++ {
		if dirty[u] {
			continue
		}
		ou := o.oldUnit(u, n2.edges)
		if ou < 0 {
			continue
		}
		lo, hi := o.off[ou], o.off[ou+1]
		if lo == hi {
			continue
		}
		per[u] = unitOut{matches: o.raw[lo:hi]}
		if o.kind == occPattern {
			per[u].keys = o.keys[lo:hi]
		}
	}
	n2.assemble(per)
	info.Reuse = o.reuse(n2, dirty)
	info.Identical = len(n2.matches) == len(o.matches)
	for i, r := range info.Reuse {
		if r != i {
			info.Identical = false
			break
		}
	}
	return n2, info, nil
}

// oldUnit maps a clean new-domain unit back to the retained domain (-1 when
// it has no predecessor).
func (o *Occurrences) oldUnit(u int, edges2 []graph.Edge) int {
	if o.kind != occKTriangles {
		if u < o.n {
			return u
		}
		return -1
	}
	return edgeIndex(o.edges, edges2[u])
}

// dirtyUnits marks, against the new graph, every unit whose output the
// appended edges can change. The rules are exact per kind:
//
//   - triangles: a triangle gained through added edge {a,b} has third node
//     w ∈ N'(a)∩N'(b) and lives in unit min(a,b,w);
//   - k-stars: only a center whose neighborhood changed — an endpoint of an
//     added edge — can gain stars;
//   - k-triangles: the added edges themselves (new units), plus every edge
//     {a,w} and {b,w} with w ∈ N'(a)∩N'(b), whose common-neighbor set grew;
//   - pattern: every root within p.K hops of an added endpoint (image nodes
//     sit within K-1 hops of the root through pattern edges; K gives slack).
func (o *Occurrences) dirtyUnits(g2 *graph.Graph, edges2, adds []graph.Edge, units2 int) []bool {
	dirty := make([]bool, units2)
	switch o.kind {
	case occTriangles:
		for _, e := range adds {
			a, b := e.U, e.V
			g2.EachNeighbor(a, func(w int) {
				if w != b && g2.HasEdge(b, w) {
					u := a // a < b by normalization
					if w < u {
						u = w
					}
					dirty[u] = true
				}
			})
		}
	case occKStars:
		for _, e := range adds {
			dirty[e.U], dirty[e.V] = true, true
		}
	case occKTriangles:
		mark := func(e graph.Edge) {
			if i := edgeIndex(edges2, e); i >= 0 {
				dirty[i] = true
			}
		}
		for _, e := range adds {
			mark(e)
			a, b := e.U, e.V
			g2.EachNeighbor(a, func(w int) {
				if w != b && g2.HasEdge(b, w) {
					mark(orderedEdge(a, w))
					mark(orderedEdge(b, w))
				}
			})
		}
	case occPattern:
		depth := make([]int, units2)
		for i := range depth {
			depth[i] = -1
		}
		var queue []int
		for _, e := range adds {
			for _, v := range [2]int{e.U, e.V} {
				if depth[v] < 0 {
					depth[v] = 0
					dirty[v] = true
					queue = append(queue, v)
				}
			}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if depth[v] >= o.pat.K {
				continue
			}
			g2.EachNeighbor(v, func(w int) {
				if depth[w] < 0 {
					depth[w] = depth[v] + 1
					dirty[w] = true
					queue = append(queue, w)
				}
			})
		}
	}
	return dirty
}

// reuse maps every new final-match index to its old final-match index (or
// -1). Clean units map positionally through the prefix offsets; dirty units
// recover identity by canonical-key lookup against the old unit's matches
// (within one unit, distinct occurrences always have distinct keys — the
// k-triangle key collision across base edges cannot bleed in, because the
// base edge is the unit itself). Pattern matches are globally deduplicated,
// so identity is the canonical key alone.
func (o *Occurrences) reuse(n2 *Occurrences, dirty []bool) []int {
	out := make([]int, len(n2.matches))
	if o.kind == occPattern {
		old := make(map[string]int, len(o.finalKeys))
		for i, k := range o.finalKeys {
			old[k] = i
		}
		for i, k := range n2.finalKeys {
			if j, ok := old[k]; ok {
				out[i] = j
			} else {
				out[i] = -1
			}
		}
		return out
	}
	for u := 0; u < n2.units(); u++ {
		lo2, hi2 := n2.off[u], n2.off[u+1]
		if lo2 == hi2 {
			continue
		}
		ou := o.oldUnit(u, n2.edges)
		if !dirty[u] {
			// Spliced wholesale: positional identity with the old unit.
			base := o.off[ou]
			for j := 0; j < hi2-lo2; j++ {
				out[lo2+j] = base + j
			}
			continue
		}
		var oldKeys map[string]int
		if ou >= 0 {
			oldKeys = make(map[string]int, o.off[ou+1]-o.off[ou])
			for j := o.off[ou]; j < o.off[ou+1]; j++ {
				oldKeys[o.raw[j].Key()] = j
			}
		}
		for i := lo2; i < hi2; i++ {
			if j, ok := oldKeys[n2.raw[i].Key()]; ok {
				out[i] = j
			} else {
				out[i] = -1
			}
		}
	}
	return out
}

// shardStats lifts per-unit dirtiness to the fixed range shards.
func shardStats(units int, dirty []bool) (total, dirtyShards int) {
	if units == 0 {
		return 0, 0
	}
	shards := enumShards
	if shards > units {
		shards = units
	}
	for s := 0; s < shards; s++ {
		lo, hi := s*units/shards, (s+1)*units/shards
		for u := lo; u < hi; u++ {
			if dirty[u] {
				dirtyShards++
				break
			}
		}
	}
	return shards, dirtyShards
}

// normalizeAdded orders, sorts and deduplicates a delta's edges, dropping
// self-loops (which AddEdge ignores anyway).
func normalizeAdded(added []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, len(added))
	for _, e := range added {
		if e.U == e.V {
			continue
		}
		out = append(out, orderedEdge(e.U, e.V))
	}
	sortEdges(out)
	dst := out[:0]
	for i, e := range out {
		if i > 0 && e == out[i-1] {
			continue
		}
		dst = append(dst, e)
	}
	return dst
}

// edgeIndex locates e in a lexicographically sorted edge list (-1 if absent).
func edgeIndex(edges []graph.Edge, e graph.Edge) int {
	i := sort.Search(len(edges), func(i int) bool {
		if edges[i].U != e.U {
			return edges[i].U >= e.U
		}
		return edges[i].V >= e.V
	})
	if i < len(edges) && edges[i] == e {
		return i
	}
	return -1
}
