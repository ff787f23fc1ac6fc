// Package subgraph enumerates subgraph occurrences (triangles, k-stars,
// k-triangles and arbitrary connected patterns) and builds the sensitive
// K-relations of Fig. 2: one tuple per matched subgraph, annotated with the
// conjunction of its node variables (node differential privacy) or its edge
// variables (edge differential privacy).
//
// The enumerators (Triangles, KStars, KTriangles, FindMatches) run
// sequentially. The retained constructors (TrianglesRetained and its
// siblings in delta.go) are the one sharded engine: they cut the work into
// fixed vertex (or edge) range shards and concatenate the outputs in range
// order, so the match list — and therefore the K-relation, its LP encoding,
// and every byte the mechanism derives from it — is identical to the
// sequential enumeration no matter how the shards were scheduled. The
// Fanout is typically a compute pool's adapter (see internal/pool); nil
// means enumerate sequentially.
package subgraph

import (
	"fmt"
	"math"
	"sort"

	"recmech/internal/graph"
)

// Fanout executes n independent tasks, possibly concurrently, returning
// after all finished (error = lowest-index task failure). It is the same
// shape as internal/pool's Map-based adapter; a nil Fanout runs shards
// inline.
type Fanout func(n int, task func(i int) error) error

// Match is one subgraph occurrence: the sorted node set and the edge set of
// the image.
type Match struct {
	Nodes []int
	Edges []graph.Edge
}

// enumShards is how many range shards a fanned enumeration is cut into —
// more than a typical pool has workers, so early-finishing shards load-
// balance, but a fixed constant so the shard boundaries (and the merged
// output) never depend on machine shape. Merging concatenates shards in
// range order, so the value affects scheduling granularity only.
const enumShards = 16

// Triangles enumerates all triangles {u < v < w}.
func Triangles(g *graph.Graph) []Match {
	return trianglesRange(g, 0, g.NumNodes())
}

// trianglesRange enumerates the triangles whose smallest node lies in
// [lo, hi). The output grows by append — a counting pre-pass would repeat
// the full neighbor-intersection work just to save slice-header growth,
// a bad trade (unlike k-stars, where degrees price the output for free).
func trianglesRange(g *graph.Graph, lo, hi int) []Match {
	var out []Match
	for u := lo; u < hi; u++ {
		nbrs := g.Neighbors(u)
		for i := 0; i < len(nbrs); i++ {
			v := nbrs[i]
			if v <= u {
				continue
			}
			for j := i + 1; j < len(nbrs); j++ {
				w := nbrs[j]
				if g.HasEdge(v, w) {
					out = append(out, Match{
						Nodes: []int{u, v, w},
						Edges: []graph.Edge{{U: u, V: v}, {U: u, V: w}, {U: v, V: w}},
					})
				}
			}
		}
	}
	return out
}

// CountTriangles returns the number of triangles without materializing them.
func CountTriangles(g *graph.Graph) int {
	return countTrianglesRange(g, 0, g.NumNodes())
}

func countTrianglesRange(g *graph.Graph, lo, hi int) int {
	c := 0
	for u := lo; u < hi; u++ {
		nbrs := g.Neighbors(u)
		for i := 0; i < len(nbrs); i++ {
			if nbrs[i] <= u {
				continue
			}
			for j := i + 1; j < len(nbrs); j++ {
				if g.HasEdge(nbrs[i], nbrs[j]) {
					c++
				}
			}
		}
	}
	return c
}

// KStars enumerates all k-stars: a center node c and a set of k distinct
// leaves adjacent to c. The count equals Σ_v C(deg(v), k).
func KStars(g *graph.Graph, k int) []Match {
	if k < 1 {
		panic("subgraph: k-star needs k ≥ 1")
	}
	return kStarsRange(g, k, 0, g.NumNodes())
}

func kStarsRange(g *graph.Graph, k, lo, hi int) []Match {
	// Exact output size from degrees alone (clamped: a pathological dense
	// graph should grow the slice, not pre-reserve gigabytes).
	expect := 0.0
	for c := lo; c < hi; c++ {
		expect += Binomial(g.Degree(c), k)
	}
	out := make([]Match, 0, clampCap(expect))
	idx := make([]int, k) // one combination buffer reused across all centers
	for c := lo; c < hi; c++ {
		nbrs := g.Neighbors(c)
		if len(nbrs) < k {
			continue
		}
		combinations(len(nbrs), k, idx, func(idx []int) {
			nodes := make([]int, 0, k+1)
			edges := make([]graph.Edge, 0, k)
			nodes = append(nodes, c)
			for _, i := range idx {
				leaf := nbrs[i]
				nodes = append(nodes, leaf)
				edges = append(edges, orderedEdge(c, leaf))
			}
			sort.Ints(nodes)
			out = append(out, Match{Nodes: nodes, Edges: edges})
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// CountKStars returns Σ_v C(deg(v), k) as a float (it can be astronomically
// large on dense graphs). The sum is Kahan-compensated, so skewed degree
// sequences — one hub term dwarfing millions of small ones — do not shed the
// small terms to rounding. Overflow saturates rather than wraps: Binomial
// returns +Inf once C(deg, k) exceeds the float64 range, +Inf terms keep the
// sum at +Inf (every term is ≥ 0, so NaN from Inf−Inf cannot arise), and
// callers scaling the result (noise calibration, estimator caps) see the
// saturation explicitly instead of a silently wrong finite value.
func CountKStars(g *graph.Graph, k int) float64 {
	total, comp := 0.0, 0.0
	for v := 0; v < g.NumNodes(); v++ {
		term := Binomial(g.Degree(v), k)
		if math.IsInf(term, 1) || math.IsInf(total, 1) {
			total, comp = math.Inf(1), 0
			continue
		}
		y := term - comp
		t := total + y
		comp = (t - total) - y
		total = t
	}
	return total
}

// KTriangles enumerates all k-triangles: an edge {u,v} together with k
// distinct common neighbors of u and v (each common neighbor forms a triangle
// over the shared edge). The count equals Σ_{(u,v)∈E} C(a_uv, k).
func KTriangles(g *graph.Graph, k int) []Match {
	if k < 1 {
		panic("subgraph: k-triangle needs k ≥ 1")
	}
	return kTrianglesRange(g, k, g.Edges())
}

func kTrianglesRange(g *graph.Graph, k int, edges []graph.Edge) []Match {
	var out []Match
	idx := make([]int, k) // combination buffer reused across edges
	var common []int      // common-neighbor buffer reused across edges
	for _, e := range edges {
		common = common[:0]
		g.EachNeighbor(e.U, func(w int) {
			if w != e.V && g.HasEdge(e.V, w) {
				common = append(common, w)
			}
		})
		sort.Ints(common)
		if len(common) < k {
			continue
		}
		combinations(len(common), k, idx, func(idx []int) {
			nodes := make([]int, 0, k+2)
			edgs := make([]graph.Edge, 0, 2*k+1)
			nodes = append(nodes, e.U, e.V)
			edgs = append(edgs, e)
			for _, i := range idx {
				w := common[i]
				nodes = append(nodes, w)
				edgs = append(edgs, orderedEdge(e.U, w), orderedEdge(e.V, w))
			}
			sort.Ints(nodes)
			sortEdges(edgs)
			out = append(out, Match{Nodes: nodes, Edges: edgs})
		})
	}
	return out
}

// CountKTriangles returns Σ_{(u,v)∈E} C(a_uv, k).
func CountKTriangles(g *graph.Graph, k int) float64 {
	total := 0.0
	for _, e := range g.Edges() {
		total += Binomial(g.CommonNeighbors(e.U, e.V), k)
	}
	return total
}

// Binomial returns C(n, k) as a float64 (0 for k > n or negative inputs).
// When the result exceeds the float64 range the multiplicative accumulation
// overflows to +Inf and stays there (dividing +Inf by i+1 keeps +Inf), so
// astronomically large counts saturate instead of wrapping or going NaN.
func Binomial(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// clampCap converts an expected element count to a slice capacity, capped
// so a huge expectation pre-reserves at most ~4M entries.
func clampCap(expect float64) int {
	const maxPrealloc = 1 << 22
	if expect < 0 {
		return 0
	}
	if expect > maxPrealloc {
		return maxPrealloc
	}
	return int(expect)
}

// combinations invokes f with every k-subset of 0..n-1 in lexicographic
// order. idx is the caller's scratch buffer of length ≥ k (reused across
// calls to avoid per-subset allocation); the slice passed to f aliases it
// and must not be retained.
func combinations(n, k int, idx []int, f func(idx []int)) {
	if k > n {
		return
	}
	idx = idx[:k]
	for i := range idx {
		idx[i] = i
	}
	for {
		f(idx)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func orderedEdge(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}

func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

// Key returns a canonical string for the match's edge set, used to
// deduplicate occurrences found through different embeddings.
func (m Match) Key() string {
	es := append([]graph.Edge(nil), m.Edges...)
	sortEdges(es)
	out := make([]byte, 0, len(es)*8)
	for _, e := range es {
		out = append(out, fmt.Sprintf("%d-%d;", e.U, e.V)...)
	}
	return string(out)
}
