package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func completeGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self-loop ignored
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 0) || g.HasEdge(-1, 0) {
		t.Error("HasEdge false positives")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestRemoveEdgeAndNode(t *testing.T) {
	g := completeGraph(4)
	g.RemoveEdge(0, 1)
	if g.NumEdges() != 5 || g.HasEdge(0, 1) {
		t.Error("RemoveEdge failed")
	}
	g.RemoveEdge(0, 1) // no-op
	if g.NumEdges() != 5 {
		t.Error("double remove changed count")
	}
	g.RemoveNode(2)
	if g.Degree(2) != 0 {
		t.Error("RemoveNode left edges")
	}
	if g.NumEdges() != 2 { // remaining: {0,3},{1,3}
		t.Errorf("NumEdges after RemoveNode = %d, want 2", g.NumEdges())
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := pathGraph(5)
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Error("Degree wrong")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	nb := g.Neighbors(2)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Errorf("Neighbors(2) = %v", nb)
	}
	count := 0
	g.EachNeighbor(2, func(int) { count++ })
	if count != 2 {
		t.Error("EachNeighbor visit count wrong")
	}
	if got := g.AverageDegree(); got != 1.6 {
		t.Errorf("AverageDegree = %v, want 1.6", got)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2)
	g.AddEdge(1, 0)
	edges := g.Edges()
	if len(edges) != 2 || edges[0] != (Edge{0, 1}) || edges[1] != (Edge{2, 3}) {
		t.Errorf("Edges = %v", edges)
	}
	// Per-node sorting must give exactly the globally sorted edge list.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		g := RandomGNM(rng, n, rng.Intn(4*n))
		var ref []Edge
		for u := 0; u < n; u++ {
			g.EachNeighbor(u, func(v int) {
				if u < v {
					ref = append(ref, Edge{u, v})
				}
			})
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].U != ref[j].U {
				return ref[i].U < ref[j].U
			}
			return ref[i].V < ref[j].V
		})
		if got := g.Edges(); !slices.Equal(got, ref) {
			t.Fatalf("trial %d: Edges() = %v, want %v", trial, got, ref)
		}
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := completeGraph(5)
	if got := g.CommonNeighbors(0, 1); got != 3 {
		t.Errorf("CommonNeighbors in K5 = %d, want 3", got)
	}
	if got := g.MaxCommonNeighbors(); got != 3 {
		t.Errorf("MaxCommonNeighbors in K5 = %d, want 3", got)
	}
	p := pathGraph(4)
	if got := p.CommonNeighbors(0, 2); got != 1 {
		t.Errorf("CommonNeighbors path = %d, want 1", got)
	}
	if got := p.MaxCommonNeighbors(); got != 1 {
		t.Errorf("MaxCommonNeighbors path = %d, want 1", got)
	}
	if New(3).MaxCommonNeighbors() != 0 {
		t.Error("empty graph MaxCommonNeighbors should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := completeGraph(3)
	h := g.Clone()
	h.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("Clone shares state")
	}
	if h.NumEdges() != 2 || g.NumEdges() != 3 {
		t.Error("edge counts wrong after clone mutation")
	}
}

// edgeModel is an independent reference for one generation: its node
// count and edge set, kept without any Graph code.
type edgeModel struct {
	n     int
	edges map[Edge]bool
}

func (m edgeModel) copyModel() edgeModel {
	c := edgeModel{n: m.n, edges: make(map[Edge]bool, len(m.edges))}
	for e := range m.edges {
		c.edges[e] = true
	}
	return c
}

func (m edgeModel) add(u, v int) {
	if u != v {
		m.edges[Edge{min(u, v), max(u, v)}] = true
	}
}

func (m edgeModel) check(t *testing.T, label string, g *Graph) {
	t.Helper()
	if g.NumNodes() != m.n || g.NumEdges() != len(m.edges) {
		t.Fatalf("%s: %d nodes %d edges, want %d and %d", label, g.NumNodes(), g.NumEdges(), m.n, len(m.edges))
	}
	want := make([]Edge, 0, len(m.edges))
	for e := range m.edges {
		want = append(want, e)
	}
	slices.SortFunc(want, func(a, b Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("%s: Edges() = %v, want %v", label, got, want)
	}
	deg := make([]int, m.n)
	for e := range m.edges {
		deg[e.U]++
		deg[e.V]++
	}
	for u := 0; u < m.n; u++ {
		if g.Degree(u) != deg[u] {
			t.Fatalf("%s: Degree(%d) = %d, want %d", label, u, g.Degree(u), deg[u])
		}
		for v := 0; v < m.n; v++ {
			if g.HasEdge(u, v) != m.edges[Edge{min(u, v), max(u, v)}] {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, want %v", label, u, v, g.HasEdge(u, v), !g.HasEdge(u, v))
			}
		}
	}
}

// TestGenerationsCopyOnWrite is the snapshot contract: generations made by
// Extend share neighbour sets, yet no write to one generation — Extend,
// AddEdge, RemoveEdge or RemoveNode — ever shows in another. Random
// operations land on random generations of a growing chain, and after every
// step each generation is checked against its independent model.
func TestGenerationsCopyOnWrite(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		m0 := edgeModel{n: n, edges: map[Edge]bool{}}
		g0 := New(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			g0.AddEdge(u, v)
			m0.add(u, v)
		}
		gens, models := []*Graph{g0}, []edgeModel{m0}
		for step := 0; step < 40; step++ {
			i := rng.Intn(len(gens))
			if step < 2 {
				i = len(gens) - 1 // a chain of at least three generations
			}
			g, m := gens[i], models[i]
			var op string
			switch r := rng.Intn(5); {
			case step < 2 || r == 0:
				grow := m.n + rng.Intn(3)
				hm := m.copyModel()
				hm.n = grow
				var add []Edge
				for k := rng.Intn(4); k > 0; k-- {
					u, v := rng.Intn(grow), rng.Intn(grow)
					add = append(add, Edge{u, v})
					hm.add(u, v)
				}
				gens, models = append(gens, g.Extend(grow, add)), append(models, hm)
				op = fmt.Sprintf("Extend(%d, %v) of gen %d", grow, add, i)
			case r == 1 || r == 2:
				u, v := rng.Intn(m.n), rng.Intn(m.n)
				g.AddEdge(u, v)
				m.add(u, v)
				op = fmt.Sprintf("AddEdge(%d,%d) on gen %d", u, v, i)
			case r == 3:
				u, v := rng.Intn(m.n), rng.Intn(m.n)
				g.RemoveEdge(u, v)
				delete(m.edges, Edge{min(u, v), max(u, v)})
				op = fmt.Sprintf("RemoveEdge(%d,%d) on gen %d", u, v, i)
			default:
				v := rng.Intn(m.n)
				g.RemoveNode(v)
				for e := range m.edges {
					if e.U == v || e.V == v {
						delete(m.edges, e)
					}
				}
				op = fmt.Sprintf("RemoveNode(%d) on gen %d", v, i)
			}
			for j := range gens {
				models[j].check(t, fmt.Sprintf("seed %d step %d after %s: gen %d", seed, step, op, j), gens[j])
			}
		}
	}
}

// TestExtendConcurrentReaders runs readers of a generation on four
// goroutines while a writer extends it into a chain and writes to every
// successor. Run under -race: readers never touch the ownership state
// Extend changes, and successors copy every set before writing it.
func TestExtendConcurrentReaders(t *testing.T) {
	const n = 200
	g := RandomGNM(rand.New(rand.NewSource(3)), n, 800)
	want := g.Edges()
	stop := make(chan struct{})
	var started, done sync.WaitGroup
	for r := 0; r < 4; r++ {
		started.Add(1)
		done.Add(1)
		go func(r int) {
			defer done.Done()
			for i := 0; ; i++ {
				u, v := (i*7+r)%n, (i*13+31*r)%n
				_ = g.HasEdge(u, v)
				if nb := g.Neighbors(u); len(nb) != g.Degree(u) {
					t.Errorf("reader %d: Neighbors(%d) has %d entries, degree %d", r, u, len(nb), g.Degree(u))
				}
				g.EachNeighbor(v, func(int) {})
				_ = g.CommonNeighbors(u, v)
				if i%64 == 0 && len(g.Edges()) != len(want) {
					t.Errorf("reader %d: %d edges, want %d", r, len(g.Edges()), len(want))
				}
				if i == 0 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	started.Wait()
	cur := g
	for i := 0; i < 50; i++ {
		next := cur.Extend(n+i, []Edge{{i, n - 1 - i}, {i, n + i - 1}})
		next.RemoveNode((3 * i) % n)
		next.RemoveEdge(i, n-1-i)
		next.AddEdge((5*i)%n, (11*i+1)%n)
		cur = next
	}
	close(stop)
	done.Wait()
	if !slices.Equal(g.Edges(), want) {
		t.Fatal("writes to successors changed the extended generation")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := completeGraph(5)
	h := g.InducedSubgraph([]int{0, 2, 4})
	if h.NumNodes() != 3 || h.NumEdges() != 3 {
		t.Errorf("induced K3: nodes=%d edges=%d", h.NumNodes(), h.NumEdges())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomGNP(rng, 20, 0.3)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d nodes/edges",
			h.NumNodes(), h.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestReadEdgeListWithoutHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n# comment\n\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Errorf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 x\n",
		"-1 2\n",
		"# nodes 2\n0 5\n",
		// Node counts past MaxNodes, declared or implied, fail before any
		// allocation.
		"# nodes 70368744177664\n",
		"0 70368744177664\n",
		"# nodes 70368744177664\n0 1\n",
	}
	for _, src := range cases {
		if _, err := ReadEdgeList(strings.NewReader(src)); err == nil {
			t.Errorf("ReadEdgeList(%q) should fail", src)
		}
	}
}

// TestReadEdgesMatchesReadEdgeList is the contract the append path leans
// on: on random edge-list texts — headers, comments, reversed pairs,
// self-loops, repeats and malformed lines — ReadEdges returns the node
// count and edges of the graph ReadEdgeList builds, or the same error.
func TestReadEdgesMatchesReadEdgeList(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		nodes := 1 + rng.Intn(12)
		for line := rng.Intn(20); line > 0; line-- {
			u, v := rng.Intn(nodes+2), rng.Intn(nodes+2)
			switch rng.Intn(12) {
			case 0:
				fmt.Fprintf(&b, "# nodes %d\n", nodes+rng.Intn(4)-1)
			case 1:
				b.WriteString("# a comment\n\n")
			case 2:
				fmt.Fprintf(&b, "%d %d\n", u, u) // self-loop
			case 3:
				fmt.Fprintf(&b, "  %d\t%d  extra\n", u, v)
			case 4:
				if rng.Intn(4) == 0 { // malformed, rarely, so most texts parse
					b.WriteString([]string{"7\n", "x 1\n", "1 -2\n", "3 99999999999\n"}[rng.Intn(4)])
				}
			default:
				fmt.Fprintf(&b, "%d %d\n", u, v)
			}
		}
		text := b.String()
		n, edges, err := ReadEdges(strings.NewReader(text))
		g, gerr := ReadEdgeList(strings.NewReader(text))
		if (err == nil) != (gerr == nil) || (err != nil && err.Error() != gerr.Error()) {
			t.Fatalf("%q: ReadEdges error %v, ReadEdgeList error %v", text, err, gerr)
		}
		if err != nil {
			continue
		}
		if n != g.NumNodes() || !slices.Equal(edges, g.Edges()) {
			t.Fatalf("%q: ReadEdges = %d nodes %v, ReadEdgeList = %d nodes %v", text, n, edges, g.NumNodes(), g.Edges())
		}
	}
}

// TestReadEdgesLongLines checks the scanner's buffer grows past its 4 KiB
// start for long lines and still refuses a line over the 16 MiB cap.
func TestReadEdgesLongLines(t *testing.T) {
	long := "# " + strings.Repeat("c", 100<<10) + "\n0 1 " + strings.Repeat("x", 100<<10) + "\n1 2\n"
	n, edges, err := ReadEdges(strings.NewReader(long))
	if err != nil || n != 3 || len(edges) != 2 {
		t.Fatalf("100 KiB lines: %d nodes, %v, %v; want 3 nodes and 2 edges", n, edges, err)
	}
	huge := "0 1 " + strings.Repeat("x", 1<<24) + "\n"
	if _, _, err := ReadEdges(strings.NewReader(huge)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 16 MiB: %v, want %v", err, bufio.ErrTooLong)
	}
}

func TestRandomGNPDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := RandomGNP(rng, 100, 0.1)
	want := 0.1 * 100 * 99 / 2
	if m := float64(g.NumEdges()); m < want*0.7 || m > want*1.3 {
		t.Errorf("G(100,0.1) edges = %v, expected ≈%v", m, want)
	}
	if RandomGNP(rng, 10, 0).NumEdges() != 0 {
		t.Error("p=0 should give empty graph")
	}
	if g := RandomGNP(rng, 5, 1); g.NumEdges() != 10 {
		t.Error("p=1 should give complete graph")
	}
}

func TestRandomAverageDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := RandomAverageDegree(rng, 200, 10)
	if avg := g.AverageDegree(); avg < 8 || avg > 12 {
		t.Errorf("average degree = %v, want ≈10", avg)
	}
	if RandomAverageDegree(rng, 1, 10).NumNodes() != 1 {
		t.Error("single node graph")
	}
	if RandomAverageDegree(rng, 0, 10).NumNodes() != 0 {
		t.Error("empty graph")
	}
	// Saturated probability clamps to the complete graph.
	if g := RandomAverageDegree(rng, 4, 100); g.NumEdges() != 6 {
		t.Errorf("clamped avgdeg should give K4, got %d edges", g.NumEdges())
	}
}

func TestRandomGNMExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := RandomGNM(rng, 30, 50)
	if g.NumEdges() != 50 {
		t.Errorf("G(n,m) edges = %d, want 50", g.NumEdges())
	}
	// Request beyond the complete graph caps.
	if g := RandomGNM(rng, 5, 100); g.NumEdges() != 10 {
		t.Errorf("capped edges = %d, want 10", g.NumEdges())
	}
}

func TestRandomClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	lo := RandomClustered(rng, 120, 300, 0.05)
	hi := RandomClustered(rng, 120, 300, 0.8)
	if lo.NumEdges() != 300 || hi.NumEdges() != 300 {
		t.Fatalf("edge counts: %d, %d, want 300", lo.NumEdges(), hi.NumEdges())
	}
	countTriangles := func(g *Graph) int {
		c := 0
		for u := 0; u < g.NumNodes(); u++ {
			nb := g.Neighbors(u)
			for i := 0; i < len(nb); i++ {
				for j := i + 1; j < len(nb); j++ {
					if nb[i] > u && g.HasEdge(nb[i], nb[j]) {
						_ = j
					}
				}
			}
		}
		// Count each triangle once via ordered enumeration.
		c = 0
		for u := 0; u < g.NumNodes(); u++ {
			nb := g.Neighbors(u)
			for i := 0; i < len(nb); i++ {
				if nb[i] < u {
					continue
				}
				for j := i + 1; j < len(nb); j++ {
					if g.HasEdge(nb[i], nb[j]) {
						c++
					}
				}
			}
		}
		return c
	}
	if tl, th := countTriangles(lo), countTriangles(hi); th <= tl {
		t.Errorf("triadFraction should raise triangle count: %d vs %d", tl, th)
	}
	// Degenerate parameters clamp instead of panicking.
	if RandomClustered(rng, 10, 20, -1).NumEdges() != 20 {
		t.Error("negative triadFraction should clamp")
	}
	if RandomClustered(rng, 10, 1000, 2).NumEdges() != 45 {
		t.Error("oversized m should cap at complete graph")
	}
}
