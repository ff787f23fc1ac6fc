// Package graph provides the undirected-graph substrate for the subgraph
// counting experiments of §6.1: adjacency structure, degree and
// common-neighbor statistics, random generators matching the paper's
// synthetic workloads, and edge-list text I/O.
package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// MaxNodes bounds the node count ReadEdges accepts, declared or implied
// by an endpoint: a graph allocates a slot per node before any edge goes
// in, so an unbounded count would let a few bytes of input ask for
// gigabytes. 1<<24 is about one node per 4-byte line of a 64 MiB upload.
const MaxNodes = 1 << 24

// Graph is a simple undirected graph on nodes 0..N-1 with no self-loops and
// no parallel edges.
//
// Generations made by Extend share neighbour sets copy-on-write: own[v]
// marks adj[v] as this graph's alone, and every writer copies a set it does
// not own before changing it, so mutating one generation never changes
// another. A nil set is an empty one. Readers never look at own.
type Graph struct {
	n   int
	adj []map[int]struct{}
	own []bool
	m   int
}

// New returns an empty graph on n nodes. Every neighbour set is allocated
// up front, in node order: scans over all nodes then walk memory in order,
// which on a 100k-node graph made them nearly twice as fast as sets
// allocated at first write.
func New(n int) *Graph {
	g := blank(n)
	for v := range g.adj {
		g.adj[v], g.own[v] = make(map[int]struct{}), true
	}
	return g
}

// blank returns a graph on n nodes with no neighbour set allocated yet.
func blank(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([]map[int]struct{}, n), own: make([]bool, n)}
}

// Extend returns the next generation of g: max(n, g.NumNodes()) nodes, g's
// edges and edges (AddEdge semantics: self-loops and duplicates are
// ignored). The successor shares g's neighbour sets and copies only those of
// edges' endpoints, so it costs a copy of |V| pointers and of the touched
// sets, not a re-insert of every edge. g keeps its edges; its readers may run
// concurrently with Extend, but another writer of g may not.
func (g *Graph) Extend(n int, edges []Edge) *Graph {
	h := blank(max(n, g.n))
	copy(h.adj, g.adj)
	h.m = g.m
	clear(g.own) // every set g holds is now shared with h
	for _, e := range edges {
		h.AddEdge(e.U, e.V)
	}
	return h
}

// set returns v's neighbour set ready for writing: allocated, and copied
// first if it may be shared with another generation.
func (g *Graph) set(v int) map[int]struct{} {
	if !g.own[v] {
		g.adj[v] = maps.Clone(g.adj[v])
		if g.adj[v] == nil {
			g.adj[v] = make(map[int]struct{})
		}
		g.own[v] = true
	}
	return g.adj[v]
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicates are
// ignored; out-of-range endpoints panic.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		return
	}
	if _, dup := g.adj[u][v]; dup {
		return
	}
	g.set(u)[v] = struct{}{}
	g.set(v)[u] = struct{}{}
	g.m++
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// RemoveEdge deletes {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	if !g.HasEdge(u, v) {
		return
	}
	delete(g.set(u), v)
	delete(g.set(v), u)
	g.m--
}

// Degree returns deg(v).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Neighbors returns the sorted neighbor list of v (a fresh slice).
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// EachNeighbor calls f for every neighbor of v in unspecified order.
func (g *Graph) EachNeighbor(v int, f func(u int)) {
	for u := range g.adj[v] {
		f(u)
	}
}

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int }

// Edges returns all edges sorted lexicographically. Edges come out grouped
// by U in ascending order, so sorting each node's higher-numbered
// neighbours is enough.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	var up []int
	for u := 0; u < g.n; u++ {
		up = up[:0]
		for v := range g.adj[u] {
			if u < v {
				up = append(up, v)
			}
		}
		slices.Sort(up)
		for _, v := range up {
			out = append(out, Edge{u, v})
		}
	}
	return out
}

// CommonNeighbors returns |N(u) ∩ N(v)| — the quantity a_uv that drives the
// local sensitivity of triangle and k-triangle counting.
func (g *Graph) CommonNeighbors(u, v int) int {
	a, b := g.adj[u], g.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	c := 0
	for w := range a {
		if _, ok := b[w]; ok {
			c++
		}
	}
	return c
}

// MaxCommonNeighbors returns max over node pairs of |N(u) ∩ N(v)| (the
// paper's a_max). Only adjacent-or-linked pairs can exceed zero interestingly,
// but the maximum is taken over all pairs as in [7]; pairs at distance > 2
// contribute 0, so scanning 2-neighborhoods suffices.
func (g *Graph) MaxCommonNeighbors() int {
	best := 0
	seen := make(map[[2]int]struct{})
	for w := 0; w < g.n; w++ {
		nbrs := g.Neighbors(w)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				key := [2]int{nbrs[i], nbrs[j]}
				if _, done := seen[key]; done {
					continue
				}
				seen[key] = struct{}{}
				if c := g.CommonNeighbors(nbrs[i], nbrs[j]); c > best {
					best = c
				}
			}
		}
	}
	return best
}

// AverageDegree returns 2|E|/|V| (0 for the empty graph).
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// Clone returns an independent copy: Extend with no edges.
func (g *Graph) Clone() *Graph { return g.Extend(g.n, nil) }

// RemoveNode removes all edges incident to v (the node index stays valid but
// isolated). This is the node-withdrawal operation of node differential
// privacy.
func (g *Graph) RemoveNode(v int) {
	for u := range g.adj[v] {
		delete(g.set(u), v)
		g.m--
	}
	g.adj[v], g.own[v] = nil, false
}

// InducedSubgraph returns the subgraph induced by keep (nodes renumbered
// 0..len(keep)-1 in the given order).
func (g *Graph) InducedSubgraph(keep []int) *Graph {
	idx := make(map[int]int, len(keep))
	for i, v := range keep {
		idx[v] = i
	}
	h := New(len(keep))
	for i, v := range keep {
		for u := range g.adj[v] {
			if j, ok := idx[u]; ok && i < j {
				h.AddEdge(i, j)
			}
		}
	}
	return h
}

// WriteEdgeList writes "u v" lines preceded by a "# nodes N" header.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d\n", g.n); err != nil {
		return err
	}
	var line []byte
	for _, e := range g.Edges() {
		line = strconv.AppendInt(line[:0], int64(e.U), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(e.V), 10)
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList into a graph; see
// ReadEdges for the format and its checks.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	n, edges, err := readEdges(r)
	if err != nil {
		return nil, err
	}
	// Allocate the sets of the nodes the edges name, in node order (own
	// marks them first): a text naming a few nodes of a large declared
	// universe costs a few sets, and scans still walk memory in order.
	g := blank(n)
	for _, e := range edges {
		g.own[e.U], g.own[e.V] = true, true
	}
	for v, named := range g.own {
		if named {
			g.adj[v] = make(map[int]struct{})
		}
	}
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g, nil
}

// ReadEdges parses the format written by WriteEdgeList into its node count
// and its edges, without building a graph: the edges are those
// ReadEdgeList(r).Edges() lists — each with U < V, self-loops and repeats
// dropped, sorted. Lines starting with '#' other than the "# nodes N"
// header are comments; the header is optional (the node count then defaults
// to 1 + the maximum endpoint). A node count above MaxNodes, declared or
// implied, is an error.
func ReadEdges(r io.Reader) (int, []Edge, error) {
	n, edges, err := readEdges(r)
	if err != nil {
		return 0, nil, err
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	return n, slices.Compact(edges), nil
}

// readEdges is the one parser behind ReadEdges and ReadEdgeList. It returns
// the edges in input order, each with U < V and self-loops dropped; only
// ReadEdges pays to sort them, since AddEdge drops repeats anyway.
func readEdges(r io.Reader) (int, []Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), 1<<24)
	n := -1
	var edges []Edge
	maxNode := -1
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			var declared int
			if _, err := fmt.Sscanf(text, "# nodes %d", &declared); err == nil {
				if declared > MaxNodes {
					return 0, nil, fmt.Errorf("graph: line %d: %d nodes declared, more than the %d allowed", line, declared, MaxNodes)
				}
				n = declared
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return 0, nil, fmt.Errorf("graph: line %d: want 'u v', got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return 0, nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0, nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return 0, nil, fmt.Errorf("graph: line %d: negative node id", line)
		}
		if u >= MaxNodes || v >= MaxNodes {
			return 0, nil, fmt.Errorf("graph: line %d: node id %d is beyond the %d nodes allowed", line, max(u, v), MaxNodes)
		}
		maxNode = max(maxNode, u, v)
		if u != v {
			edges = append(edges, Edge{min(u, v), max(u, v)})
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if n < 0 {
		n = maxNode + 1
	}
	if maxNode >= n {
		return 0, nil, fmt.Errorf("graph: node %d exceeds declared count %d", maxNode, n)
	}
	return n, edges, nil
}
