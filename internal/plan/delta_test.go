package plan

import (
	"context"
	"fmt"
	"math"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/lp"
	"recmech/internal/noise"
	"recmech/internal/pool"
)

// absentEdges deterministically picks count edges not present in g, spread
// over the vertex range — the reproducible "small append" of the delta
// golden tests.
func absentEdges(g *graph.Graph, count int) []graph.Edge {
	var out []graph.Edge
	n := g.NumNodes()
	step := 0
	for u := 0; u < n && len(out) < count; u++ {
		for v := u + 1; v < n && len(out) < count; v++ {
			if g.HasEdge(u, v) {
				continue
			}
			if step%3 == 0 { // skip two of three candidates to spread the delta
				out = append(out, graph.Edge{U: u, V: v})
			}
			step++
		}
	}
	return out
}

func applied(g *graph.Graph, delta []graph.Edge, extraNodes int) *graph.Graph {
	h := graph.New(g.NumNodes() + extraNodes)
	for _, e := range g.Edges() {
		h.AddEdge(e.U, e.V)
	}
	for _, e := range delta {
		h.AddEdge(e.U, e.V)
	}
	return h
}

// releasesMatch asserts a and b produce bit-identical seeded releases across
// ε values and consecutive draws — the plan-level identity contract.
func releasesMatch(t *testing.T, name string, a, b *Plan) {
	t.Helper()
	ctx := context.Background()
	for _, eps := range []float64{0.3, 1.1} {
		rngA, rngB := noise.NewRand(77), noise.NewRand(77)
		for draw := 0; draw < 2; draw++ {
			vA, err := a.Release(ctx, eps, rngA)
			if err != nil {
				t.Fatalf("%s: release A: %v", name, err)
			}
			vB, err := b.Release(ctx, eps, rngB)
			if err != nil {
				t.Fatalf("%s: release B: %v", name, err)
			}
			if math.Float64bits(vA) != math.Float64bits(vB) {
				t.Fatalf("%s ε=%g draw %d: delta-compiled release %v != cold compile %v",
					name, eps, draw, vA, vB)
			}
		}
	}
}

// TestGoldenDeltaBitIdentity is the acceptance golden matrix: for every
// workload kind and privacy model, across parallelism 1 and 4, a plan
// advanced over an edge delta releases bit-identically to a fresh compile
// of the new generation. SQL (no incremental path) must fall back — and
// still match.
func TestGoldenDeltaBitIdentity(t *testing.T) {
	graphSrc, sqlSrc := goldenSources(t)
	ctx := context.Background()
	delta := absentEdges(graphSrc.Graph, 3)
	if len(delta) != 3 {
		t.Fatalf("test graph too dense for a 3-edge delta")
	}
	g1 := applied(graphSrc.Graph, delta, 0)
	pools := map[string]*pool.Pool{"workers=1": nil, "workers=4": pool.New(4)}
	for _, spec := range goldenSpecs() {
		name, _ := spec.Key()
		for pname, workers := range pools {
			src0, src1, d := graphSrc, Source{Graph: g1}, Delta{Added: delta}
			if spec.Kind == KindSQL {
				src0, src1, d = sqlSrc, sqlSrc, Delta{}
			}
			base, err := CompileContext(ctx, src0, spec, workers)
			if err != nil {
				t.Fatalf("%s: base compile: %v", name, err)
			}
			// Warm the base so the advance has solved state to leave behind.
			if err := base.Warm(ctx, 0.5); err != nil {
				t.Fatalf("%s: warm: %v", name, err)
			}
			adv, prof, err := base.Advance(ctx, src1, d, workers)
			if err != nil {
				t.Fatalf("%s: Advance: %v", name, err)
			}
			fresh, err := CompileContext(ctx, src1, spec, workers)
			if err != nil {
				t.Fatalf("%s: fresh compile: %v", name, err)
			}
			label := fmt.Sprintf("%s/%s", name, pname)
			releasesMatch(t, label, adv, fresh)
			switch spec.Kind {
			case KindSQL:
				if !prof.Fallback || prof.Reason != "sql" {
					t.Fatalf("%s: SQL advance did not fall back (profile %+v)", label, prof)
				}
			case KindTriangles, KindPattern:
				// Provably collision-free kinds must take the incremental
				// path; k-stars/k-triangles may honestly fall back when
				// the dup-key scan fires on this graph.
				if prof.Fallback {
					t.Fatalf("%s: unexpected fallback %q", label, prof.Reason)
				}
				// A delta whose edges close no occurrence can honestly
				// dirty nothing — but then it must report Identical.
				if prof.UnitsDirty > prof.UnitsTotal || (prof.UnitsDirty == 0 && !prof.Identical) {
					t.Fatalf("%s: implausible dirtiness %+v", label, prof)
				}
				if !spec.EdgePrivacy && prof.TuplesReused == 0 && len(base.occ.Matches()) > 0 {
					t.Fatalf("%s: no tuples reused across a 3-edge delta (profile %+v)", label, prof)
				}
			}
		}
	}
}

// TestAdvanceIdenticalGeneration pins the no-op fast path: a delta of
// already-present edges advances to a generation whose solved H/G values
// carry over wholesale, and releases stay bit-identical.
func TestAdvanceIdenticalGeneration(t *testing.T) {
	graphSrc, _ := goldenSources(t)
	ctx := context.Background()
	spec := &Spec{Kind: KindTriangles}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	base, err := Compile(graphSrc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Warm(ctx, 0.5); err != nil {
		t.Fatal(err)
	}
	// Re-send an existing edge: the dataset generation advances, the
	// workload sees nothing.
	dup := graphSrc.Graph.Edges()[0]
	adv, prof, err := base.Advance(ctx, Source{Graph: graphSrc.Graph.Clone()}, Delta{Added: []graph.Edge{dup}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Identical {
		t.Fatalf("duplicate-edge delta not reported identical: %+v", prof)
	}
	if prof.ValuesCarried == 0 {
		t.Fatalf("identical advance carried no values: %+v", prof)
	}
	cold, err := Compile(graphSrc, spec)
	if err != nil {
		t.Fatal(err)
	}
	releasesMatch(t, "identical", adv, cold)
}

// TestAdvanceChain walks a plan through several micro-generations — edge
// appends and node growth — comparing each advanced plan against a cold
// compile of that generation, and checks the process-wide counters moved.
func TestAdvanceChain(t *testing.T) {
	graphSrc, _ := goldenSources(t)
	ctx := context.Background()
	before := ReadDeltaCounters()
	for _, spec := range []*Spec{
		{Kind: KindTriangles},
		{Kind: KindPattern, PatternNodes: 4, PatternEdges: [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{Kind: KindTriangles, EdgePrivacy: true},
	} {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		g := graphSrc.Graph
		p, err := Compile(Source{Graph: g}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			extra := 0
			if step == 1 {
				extra = 2 // generation with node growth
			}
			delta := absentEdges(g, 2)
			if extra > 0 {
				delta = append(delta, graph.Edge{U: 0, V: g.NumNodes()}) // edge onto a new node
			}
			g2 := applied(g, delta, extra)
			p2, prof, err := p.Advance(ctx, Source{Graph: g2}, Delta{Added: delta}, nil)
			if err != nil {
				t.Fatalf("step %d: Advance: %v", step, err)
			}
			if prof.Fallback {
				t.Fatalf("step %d: unexpected fallback %q", step, prof.Reason)
			}
			cold, err := Compile(Source{Graph: g2}, spec)
			if err != nil {
				t.Fatal(err)
			}
			name, _ := spec.Key()
			releasesMatch(t, fmt.Sprintf("%s/chain-step-%d", name, step), p2, cold)
			g, p = g2, p2
		}
	}
	after := ReadDeltaCounters()
	if after.Advances <= before.Advances || after.TuplesReused <= before.TuplesReused {
		t.Fatalf("delta counters did not move: %+v -> %+v", before, after)
	}
}

// TestAdvancedFirstReleaseNoCostlierThanFresh pins the cost side of
// Advance: the first release on an advanced plan must do no more LP pivots
// than the first release of a fresh compile of the same generation, and
// release the same bits. An advanced plan that starts from its
// predecessor's warm-start bases loses this: they fit the old LP's shape,
// the solver discards them, and every solve runs cold. Sequential (nil
// pool), so pivot counts are deterministic.
func TestAdvancedFirstReleaseNoCostlierThanFresh(t *testing.T) {
	ctx := context.Background()
	firstRelease := func(p *Plan) (float64, uint64) {
		t.Helper()
		before := lp.ReadCounters().Pivots
		v, err := p.Release(ctx, 0.5, noise.NewRand(99))
		if err != nil {
			t.Fatalf("release: %v", err)
		}
		return v, lp.ReadCounters().Pivots - before
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g0 := graph.RandomAverageDegree(noise.NewRand(seed), 150, 8)
		for _, spec := range []*Spec{
			{Kind: KindTriangles},
			{Kind: KindTriangles, EdgePrivacy: true},
			{Kind: KindKTriangles, K: 2},
		} {
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			name, _ := spec.Key()
			p, err := Compile(Source{Graph: g0}, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Warm(ctx, 0.5); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Release(ctx, 0.5, noise.NewRand(seed)); err != nil {
				t.Fatal(err)
			}
			g := g0
			var advSum, freshSum uint64
			for step := 1; step <= 3; step++ {
				delta := absentEdges(g, 3)
				g2 := applied(g, delta, 0)
				adv, _, err := p.Advance(ctx, Source{Graph: g2}, Delta{Added: delta}, nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := CompileContext(ctx, Source{Graph: g2}, spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				vAdv, pivAdv := firstRelease(adv)
				vFresh, pivFresh := firstRelease(fresh)
				if math.Float64bits(vAdv) != math.Float64bits(vFresh) {
					t.Fatalf("seed %d %s append %d: advanced release %v != fresh %v", seed, name, step, vAdv, vFresh)
				}
				if pivAdv > pivFresh {
					t.Errorf("seed %d %s append %d: advanced plan's first release took %d pivots, fresh compile's %d",
						seed, name, step, pivAdv, pivFresh)
				}
				advSum += pivAdv
				freshSum += pivFresh
				p, g = adv, g2
			}
			t.Logf("seed %d %s: first-release pivots over 3 appends: advanced %d, fresh %d", seed, name, advSum, freshSum)
		}
	}
}

// BenchmarkDeltaCompile is the acceptance A/B: the cost of compiling the
// next generation fresh versus advancing the predecessor's plan, on the
// BenchmarkCompileScaling workload (n=150, average degree 8, triangles) with
// a ≤1% edge delta (6 of ~600 edges). Run both sub-benchmarks interleaved
// (CI does) and compare ns/op: the acceptance bar is delta ≥5× faster.
func BenchmarkDeltaCompile(b *testing.B) {
	g := graph.RandomAverageDegree(noise.NewRand(21), 150, 8)
	delta := absentEdges(g, 6)
	g2 := applied(g, delta, 0)
	spec := &Spec{Kind: KindTriangles}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	base, err := CompileContext(ctx, Source{Graph: g}, spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	src2 := Source{Graph: g2}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CompileContext(ctx, src2, spec, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p2, prof, err := base.Advance(ctx, src2, Delta{Added: delta}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if prof.Fallback || p2 == nil {
				b.Fatalf("delta compile fell back: %+v", prof)
			}
		}
	})
}
