package subgraph

import (
	"fmt"
	"sort"
	"strconv"

	"recmech/internal/graph"
)

// Pattern is a connected query subgraph on nodes 0..K-1. Matching is
// subgraph-containment: an occurrence is a set of K data nodes together with
// an injective mapping under which every pattern edge is present (the data
// nodes may have additional edges among them). Two embeddings with the same
// image edge set are the same occurrence — matching Fig. 1's
// "k-node l-edge connected subgraph counting".
type Pattern struct {
	K     int
	Edges []graph.Edge
}

// NewPattern validates and returns a pattern. The pattern must be connected
// and have no isolated nodes (every node in 0..k-1 must appear in an edge,
// except the trivial k = 1 pattern).
func NewPattern(k int, edges []graph.Edge) Pattern {
	if k < 1 {
		panic("subgraph: pattern needs at least one node")
	}
	seen := make([]bool, k)
	adj := make([][]int, k)
	for _, e := range edges {
		if e.U < 0 || e.U >= k || e.V < 0 || e.V >= k || e.U == e.V {
			panic("subgraph: pattern edge out of range")
		}
		seen[e.U], seen[e.V] = true, true
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	if k > 1 {
		for i, s := range seen {
			if !s {
				panicf("subgraph: pattern node %d is isolated", i)
			}
		}
		// Connectivity check.
		visited := make([]bool, k)
		stack := []int{0}
		visited[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v] {
				if !visited[u] {
					visited[u] = true
					count++
					stack = append(stack, u)
				}
			}
		}
		if count != k {
			panicf("subgraph: pattern is disconnected (%d of %d reachable)", count, k)
		}
	}
	es := append([]graph.Edge(nil), edges...)
	for i, e := range es {
		if e.U > e.V {
			es[i] = graph.Edge{U: e.V, V: e.U}
		}
	}
	sortEdges(es)
	return Pattern{K: k, Edges: es}
}

func panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

// TrianglePattern, KStarPattern and KTrianglePattern are convenience
// constructors for the workloads of §6.1.
func TrianglePattern() Pattern {
	return NewPattern(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}})
}

// KStarPattern has node 0 as center and nodes 1..k as leaves.
func KStarPattern(k int) Pattern {
	edges := make([]graph.Edge, k)
	for i := 0; i < k; i++ {
		edges[i] = graph.Edge{U: 0, V: i + 1}
	}
	return NewPattern(k+1, edges)
}

// KTrianglePattern has the shared edge {0,1} and apexes 2..k+1.
func KTrianglePattern(k int) Pattern {
	edges := []graph.Edge{{U: 0, V: 1}}
	for i := 0; i < k; i++ {
		apex := i + 2
		edges = append(edges, graph.Edge{U: 0, V: apex}, graph.Edge{U: 1, V: apex})
	}
	return NewPattern(k+2, edges)
}

// matcher holds the read-only search tables shared by every shard of one
// pattern enumeration: the pattern-node visit order (each node after the
// first adjacent to an already-placed one, keeping candidates constrained
// to neighborhoods), per-node pattern degrees and the pattern adjacency
// matrix.
type matcher struct {
	g       *graph.Graph
	p       Pattern
	order   []int
	parents []int
	patDeg  []int
	padj    [][]bool
}

func newMatcher(g *graph.Graph, p Pattern) *matcher {
	order, parents := searchOrder(p)
	m := &matcher{
		g: g, p: p, order: order, parents: parents,
		patDeg: make([]int, p.K),
		padj:   make([][]bool, p.K),
	}
	for i := range m.padj {
		m.padj[i] = make([]bool, p.K)
	}
	for _, e := range p.Edges {
		m.patDeg[e.U]++
		m.patDeg[e.V]++
		m.padj[e.U][e.V] = true
		m.padj[e.V][e.U] = true
	}
	return m
}

// run enumerates the occurrences whose root (the first pattern node placed)
// maps to a data node in [rootLo, rootHi), deduplicating by image edge set
// within the shard and returning the matches with their dedup keys.
// maxMatches > 0 truncates the search (0 means unlimited). The shard owns
// its backtracking state, so shards of one matcher may run concurrently.
func (mt *matcher) run(rootLo, rootHi, maxMatches int) ([]Match, []string) {
	g := mt.g
	assignment := make([]int, mt.p.K) // pattern node -> data node
	used := make([]bool, g.NumNodes())
	seen := make(map[string]struct{})
	var out []Match
	var keys []string

	var rec func(step int) bool
	rec = func(step int) bool {
		if step == len(mt.order) {
			m := buildMatch(mt.p, assignment)
			key := m.Key()
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				out = append(out, m)
				keys = append(keys, key)
				if maxMatches > 0 && len(out) >= maxMatches {
					return true
				}
			}
			return false
		}
		pn := mt.order[step]
		tryCandidate := func(cand int) bool {
			if used[cand] || g.Degree(cand) < mt.patDeg[pn] {
				return false
			}
			// All already-placed pattern neighbors must be adjacent.
			for prev := 0; prev < step; prev++ {
				qn := mt.order[prev]
				if mt.padj[pn][qn] && !g.HasEdge(cand, assignment[qn]) {
					return false
				}
			}
			assignment[pn] = cand
			used[cand] = true
			stop := rec(step + 1)
			used[cand] = false
			return stop
		}
		if parent := mt.parents[step]; parent >= 0 {
			anchor := assignment[parent]
			for _, cand := range g.Neighbors(anchor) {
				if tryCandidate(cand) {
					return true
				}
			}
		} else {
			for cand := rootLo; cand < rootHi; cand++ {
				if tryCandidate(cand) {
					return true
				}
			}
		}
		return false
	}
	rec(0)
	return out, keys
}

// FindMatches enumerates the occurrences of p in g by backtracking search
// with degree pruning, deduplicating embeddings that share an image edge set.
// maxMatches > 0 truncates the search (0 means unlimited).
func FindMatches(g *graph.Graph, p Pattern, maxMatches int) []Match {
	out, _ := newMatcher(g, p).run(0, g.NumNodes(), maxMatches)
	return out
}

// CountMatches returns the number of distinct occurrences.
func CountMatches(g *graph.Graph, p Pattern) int {
	return len(FindMatches(g, p, 0))
}

// searchOrder returns a pattern-node visit order in which every node after
// the first has at least one earlier neighbor, plus for each step the pattern
// node (not index) of one such earlier neighbor (-1 for the root).
func searchOrder(p Pattern) (order []int, parents []int) {
	adj := patternAdj(p)
	// Root at the max-degree node for tighter early pruning.
	root := 0
	for v := 1; v < p.K; v++ {
		if len(adj[v]) > len(adj[root]) {
			root = v
		}
	}
	return searchOrderFrom(p, adj, root)
}

func patternAdj(p Pattern) [][]int {
	adj := make([][]int, p.K)
	for _, e := range p.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return adj
}

// searchOrderFrom is searchOrder with a caller-chosen root, used by the
// anchored counter to build one search order per possible root.
func searchOrderFrom(p Pattern, adj [][]int, root int) (order []int, parents []int) {
	placed := make([]bool, p.K)
	order = append(order, root)
	parents = append(parents, -1)
	placed[root] = true
	for len(order) < p.K {
		bestNode, bestParent, bestScore := -1, -1, -1
		for v := 0; v < p.K; v++ {
			if placed[v] {
				continue
			}
			score := 0
			parent := -1
			for _, u := range adj[v] {
				if placed[u] {
					score++
					parent = u
				}
			}
			if score > bestScore {
				bestNode, bestParent, bestScore = v, parent, score
			}
		}
		order = append(order, bestNode)
		parents = append(parents, bestParent)
		placed[bestNode] = true
	}
	return order, parents
}

// AnchoredCounter counts, for one fixed pattern, the occurrences whose
// minimum image node equals a given anchor. Every occurrence has exactly one
// minimum node, so Σ_v CountAt(v) = CountMatches(g, p) — the per-anchor
// counts partition the occurrence set exactly, which is what makes uniform
// anchor sampling an unbiased estimator of the total (internal/estimate).
//
// Occurrences are identified by image edge set, matching FindMatches' dedup
// semantics. Construction builds one search order per pattern root; CountAt
// reuses the shared scratch state, so a counter must not be used from more
// than one goroutine at a time.
type AnchoredCounter struct {
	g    *graph.Graph
	p    Pattern
	mts  []*matcher
	seen map[string]struct{}
	// Scratch reused across CountAt calls — the counter runs millions of
	// tiny searches per estimate, so per-call allocation would dominate.
	assignment []int
	used       []bool
	edgeBuf    []graph.Edge
	keyBuf     []byte
}

// NewAnchoredCounter prepares anchored counting of p in g.
func NewAnchoredCounter(g *graph.Graph, p Pattern) *AnchoredCounter {
	adj := patternAdj(p)
	mts := make([]*matcher, 0, p.K)
	for q := 0; q < p.K; q++ {
		mt := newMatcher(g, p)
		mt.order, mt.parents = searchOrderFrom(p, adj, q)
		mts = append(mts, mt)
	}
	return &AnchoredCounter{
		g: g, p: p, mts: mts,
		seen:       make(map[string]struct{}),
		assignment: make([]int, p.K),
		used:       make([]bool, g.NumNodes()),
		edgeBuf:    make([]graph.Edge, 0, len(p.Edges)),
	}
}

// CountAt returns the number of distinct occurrences whose minimum image
// node is v. An occurrence with minimum node v maps at least one pattern
// node to v, so running the search once per pattern root q with q pinned to
// v and every other image node restricted to > v finds each such occurrence
// at least once; the key set dedups embeddings found through several roots.
func (a *AnchoredCounter) CountAt(v int) int {
	if v < 0 || v >= a.g.NumNodes() {
		return 0
	}
	clear(a.seen)
	for _, mt := range a.mts {
		a.runAnchored(mt, v)
	}
	return len(a.seen)
}

// runAnchored is matcher.run with the root pinned to data node v and all
// other candidates restricted to nodes > v, recording the image-edge-set
// keys of the occurrences it finds into the counter's seen set.
func (a *AnchoredCounter) runAnchored(mt *matcher, v int) {
	g := a.g
	if g.Degree(v) < mt.patDeg[mt.order[0]] {
		return
	}
	var rec func(step int)
	rec = func(step int) {
		if step == len(mt.order) {
			a.record()
			return
		}
		pn := mt.order[step]
		parent := mt.parents[step] // ≥ 0: only the root (step 0) has parent -1
		anchor := a.assignment[parent]
	cands:
		for _, cand := range g.Neighbors(anchor) {
			// Every non-root image node must exceed v so v stays the
			// minimum of the image (v itself is excluded by used[v]).
			if cand <= v || a.used[cand] || g.Degree(cand) < mt.patDeg[pn] {
				continue
			}
			for prev := 0; prev < step; prev++ {
				qn := mt.order[prev]
				if mt.padj[pn][qn] && !g.HasEdge(cand, a.assignment[qn]) {
					continue cands
				}
			}
			a.assignment[pn] = cand
			a.used[cand] = true
			rec(step + 1)
			a.used[cand] = false
		}
	}
	a.assignment[mt.order[0]] = v
	a.used[v] = true
	rec(1)
	a.used[v] = false
}

// record dedups the current assignment by its canonical image edge set —
// the same occurrence identity Match.Key uses, rendered without the
// per-occurrence allocations (insertion sort on a reused edge buffer, key
// bytes appended into a reused scratch that only escapes for new keys).
func (a *AnchoredCounter) record() {
	es := a.edgeBuf[:0]
	for _, e := range a.p.Edges {
		es = append(es, orderedEdge(a.assignment[e.U], a.assignment[e.V]))
	}
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && (es[j].U < es[j-1].U || (es[j].U == es[j-1].U && es[j].V < es[j-1].V)); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
	b := a.keyBuf[:0]
	for _, e := range es {
		b = strconv.AppendInt(b, int64(e.U), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, ';')
	}
	a.keyBuf = b
	if _, dup := a.seen[string(b)]; !dup {
		a.seen[string(b)] = struct{}{}
	}
}

func buildMatch(p Pattern, assignment []int) Match {
	nodes := append([]int(nil), assignment...)
	sort.Ints(nodes)
	edges := make([]graph.Edge, len(p.Edges))
	for i, e := range p.Edges {
		edges[i] = orderedEdge(assignment[e.U], assignment[e.V])
	}
	sortEdges(edges)
	return Match{Nodes: nodes, Edges: edges}
}
