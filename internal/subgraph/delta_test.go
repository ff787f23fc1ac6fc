package subgraph

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/pool"
)

// deltaCase is one workload kind of the incremental-enumeration property
// matrix (SQL has no occurrence set; its delta path is covered at the plan
// layer).
type deltaCase struct {
	name string
	kind occKind
	k    int
	pat  Pattern
}

func deltaCases() []deltaCase {
	return []deltaCase{
		{name: "triangles", kind: occTriangles},
		{name: "kstars2", kind: occKStars, k: 2},
		{name: "ktriangles2", kind: occKTriangles, k: 2},
		{name: "path4", kind: occPattern, pat: NewPattern(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})},
		{name: "star3pattern", kind: occPattern, pat: KStarPattern(3)},
	}
}

func (c deltaCase) retained(t *testing.T, g *graph.Graph, fan Fanout) *Occurrences {
	t.Helper()
	var o *Occurrences
	var err error
	switch c.kind {
	case occTriangles:
		o, err = TrianglesRetained(g, fan)
	case occKStars:
		o, err = KStarsRetained(g, c.k, fan)
	case occKTriangles:
		o, err = KTrianglesRetained(g, c.k, fan)
	default:
		o, err = PatternRetained(g, c.pat, fan)
	}
	if err != nil {
		t.Fatalf("%s: retained enumeration: %v", c.name, err)
	}
	return o
}

// fresh runs the case's sequential enumerator.
func (c deltaCase) fresh(g *graph.Graph) []Match {
	switch c.kind {
	case occTriangles:
		return Triangles(g)
	case occKStars:
		return KStars(g, c.k)
	case occKTriangles:
		return KTriangles(g, c.k)
	default:
		return FindMatches(g, c.pat, 0)
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// grow copies g onto a node set enlarged by extra isolated nodes.
func grow(g *graph.Graph, extra int) *graph.Graph {
	h := graph.New(g.NumNodes() + extra)
	for _, e := range g.Edges() {
		h.AddEdge(e.U, e.V)
	}
	return h
}

// TestRetainedMatchesFreshEnumeration pins the base contract: a sharded
// retained enumeration's final match list is byte-identical to the
// sequential enumerator's.
func TestRetainedMatchesFreshEnumeration(t *testing.T) {
	p := pool.New(3)
	fan := Fanout(p.Fanout(context.Background()))
	for _, c := range deltaCases() {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			g := randomGraph(rng, 5+rng.Intn(28), 0.12)
			o := c.retained(t, g, fan)
			want := c.fresh(g)
			if !reflect.DeepEqual(o.Matches(), want) {
				t.Fatalf("%s seed %d: retained matches diverge from fresh enumeration", c.name, seed)
			}
		}
	}
}

// TestAdvancePropertyRandomAppends is the delta-compile property test: for
// randomized append sequences — fresh edges, re-sent duplicate edges,
// self-loops, occasional node growth — every Advance along the chain must
// produce exactly the occurrence list a full re-enumeration of the new
// generation produces, and the reuse map must point at content-identical
// predecessors. Run under -race in CI; shards execute on a real pool.
func TestAdvancePropertyRandomAppends(t *testing.T) {
	p := pool.New(4)
	fan := Fanout(p.Fanout(context.Background()))
	for _, c := range deltaCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(7*seed + 1))
				n := 6 + rng.Intn(30)
				g := randomGraph(rng, n, 0.08+0.1*rng.Float64())
				// Alternate the fanout so both the inline and the pooled
				// recompute paths face every delta shape.
				f := fan
				if seed%2 == 1 {
					f = nil
				}
				o := c.retained(t, g, f)
				for step := 0; step < 4; step++ {
					g2 := g
					if rng.Intn(4) == 0 {
						g2 = grow(g, 1+rng.Intn(3))
					} else {
						g2 = g.Clone()
					}
					var delta []graph.Edge
					for i := 1 + rng.Intn(5); i > 0; i-- {
						u, v := rng.Intn(g2.NumNodes()), rng.Intn(g2.NumNodes())
						// Self-loops and already-present edges ride along on
						// purpose: the append API tolerates them and the
						// dirty rules must stay conservative, not wrong.
						delta = append(delta, graph.Edge{U: u, V: v})
						g2.AddEdge(u, v)
					}
					o2, info, err := o.Advance(g2, delta, f)
					if err != nil {
						t.Fatalf("seed %d step %d: Advance: %v", seed, step, err)
					}
					want := c.fresh(g2)
					if !reflect.DeepEqual(o2.Matches(), want) {
						t.Fatalf("seed %d step %d: incremental matches diverge from full re-enumeration (%d vs %d matches)",
							seed, step, len(o2.Matches()), len(want))
					}
					if info.UnitsDirty > info.UnitsTotal || info.ShardsDirty > info.ShardsTotal {
						t.Fatalf("seed %d step %d: implausible dirtiness %+v", seed, step, info)
					}
					if len(info.Reuse) != len(o2.Matches()) {
						t.Fatalf("seed %d step %d: reuse map has %d entries for %d matches",
							seed, step, len(info.Reuse), len(o2.Matches()))
					}
					for i, r := range info.Reuse {
						if r < 0 {
							continue
						}
						if !reflect.DeepEqual(o2.Matches()[i], o.Matches()[r]) {
							t.Fatalf("seed %d step %d: reuse[%d]=%d points at a different occurrence", seed, step, i, r)
						}
					}
					if info.Identical && !reflect.DeepEqual(o2.Matches(), o.Matches()) {
						t.Fatalf("seed %d step %d: Identical reported over a changed match list", seed, step)
					}
					g, o = g2, o2
				}
				// An empty delta must advance to an identical generation.
				o3, info, err := o.Advance(g.Clone(), nil, f)
				if err != nil {
					t.Fatalf("seed %d: empty Advance: %v", seed, err)
				}
				if !info.Identical || !reflect.DeepEqual(o3.Matches(), o.Matches()) {
					t.Fatalf("seed %d: empty delta did not report an identical generation", seed)
				}
			}
		})
	}
}

// TestAdvanceRejectsShrink pins the append-only contract.
func TestAdvanceRejectsShrink(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 12, 0.2)
	o, err := TrianglesRetained(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.Advance(graph.New(6), nil, nil); err == nil {
		t.Fatal("Advance accepted a shrunken node count")
	}
	if _, _, err := o.Advance(g, []graph.Edge{{U: 0, V: 99}}, nil); err == nil {
		t.Fatal("Advance accepted an out-of-range delta edge")
	}
}
