package plan

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/noise"
	"recmech/internal/query"
)

func testGraphSource(t testing.TB) Source {
	t.Helper()
	g := graph.New(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {5, 6}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	return Source{Graph: g}
}

func testRelationalSource(t testing.TB) Source {
	t.Helper()
	const table = `
x y
a b @ pa & pb
b c @ pb & pc
c d @ pc & pd
a c @ pa & pc
`
	u := boolexpr.NewUniverse()
	rel, err := query.LoadTable(strings.NewReader(table), u)
	if err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	db := query.NewDatabase()
	db.Register("visits", rel)
	return Source{DB: db, Universe: u}
}

func TestSpecValidateAndKey(t *testing.T) {
	bad := []Spec{
		{},                                    // no kind
		{Kind: "median"},                      // unknown kind
		{Kind: KindSQL},                       // sql without query
		{Kind: KindSQL, Query: "SELECT FROM"}, // parse error
		{Kind: KindSQL, Query: "SELECT x FROM t", EdgePrivacy: true}, // edge privacy on sql
		{Kind: KindKStars},                                                   // k missing
		{Kind: KindKStars, K: MaxK + 1},                                      // k over cap
		{Kind: KindPattern, PatternNodes: MaxPatternNodes + 1},               // nodes over cap
		{Kind: KindPattern, PatternNodes: 3, PatternEdges: [][2]int{{0, 3}}}, // edge out of range
		{Kind: KindPattern, PatternNodes: 2, PatternEdges: [][2]int{{1, 1}}}, // self-loop
	}
	for i, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrSpec) {
			t.Errorf("bad spec %d: Validate = %v, want ErrSpec", i, err)
		}
	}

	// Formatting variants of the same SQL share a key; distinct queries don't.
	a := &Spec{Kind: KindSQL, Query: "SELECT x FROM visits WHERE y != 'zz'"}
	b := &Spec{Kind: KindSQL, Query: "select   X  from VISITS where Y <> \"zz\""}
	c := &Spec{Kind: KindSQL, Query: "SELECT x FROM visits"}
	for _, s := range []*Spec{a, b, c} {
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate(%q): %v", s.Query, err)
		}
	}
	ka, _ := a.Key()
	kb, _ := b.Key()
	kc, _ := c.Key()
	if ka != kb {
		t.Errorf("canonical variants keyed apart: %q vs %q", ka, kb)
	}
	if ka == kc {
		t.Errorf("distinct queries share a key: %q", ka)
	}

	// Pattern edge order and orientation are canonicalized.
	p1 := &Spec{Kind: KindPattern, PatternNodes: 3, PatternEdges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
	p2 := &Spec{Kind: KindPattern, PatternNodes: 3, PatternEdges: [][2]int{{2, 0}, {1, 0}, {2, 1}}}
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Validate(); err != nil {
		t.Fatal(err)
	}
	k1, _ := p1.Key()
	k2, _ := p2.Key()
	if k1 != k2 {
		t.Errorf("equivalent patterns keyed apart: %q vs %q", k1, k2)
	}

	// Privacy model is part of the key.
	tri := &Spec{Kind: KindTriangles}
	triEdge := &Spec{Kind: KindTriangles, EdgePrivacy: true}
	kt, _ := tri.Key()
	kte, _ := triEdge.Key()
	if kt == kte {
		t.Errorf("node and edge privacy share a key: %q", kt)
	}
}

func TestCompileWrongShape(t *testing.T) {
	gsrc := testGraphSource(t)
	rsrc := testRelationalSource(t)

	sql := &Spec{Kind: KindSQL, Query: "SELECT x FROM visits"}
	if err := sql.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(gsrc, sql); !errors.Is(err, ErrSpec) {
		t.Errorf("sql against graph: %v, want ErrSpec", err)
	}
	tri := &Spec{Kind: KindTriangles}
	if _, err := Compile(rsrc, tri); !errors.Is(err, ErrSpec) {
		t.Errorf("triangles against relational: %v, want ErrSpec", err)
	}
	unknownTable := &Spec{Kind: KindSQL, Query: "SELECT x FROM ghosts"}
	if err := unknownTable.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(rsrc, unknownTable); !errors.Is(err, ErrSpec) {
		t.Errorf("unknown table: %v, want ErrSpec", err)
	}
}

// TestReleaseMemoization is the structural form of the prepared-release
// speedup guarantee: a repeat release with the same ε and the same noise
// stream performs zero new LP solves — every sequence entry it touches is
// already solved — and reproduces the identical value.
func TestReleaseMemoization(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  Source
		spec *Spec
	}{
		{"triangles", testGraphSource(t), &Spec{Kind: KindTriangles}},
		{"sql", testRelationalSource(t), &Spec{Kind: KindSQL, Query: "SELECT x FROM visits"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			pl, err := Compile(tc.src, tc.spec)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			v1, err := pl.Release(context.Background(), 0.5, noise.NewRand(42))
			if err != nil {
				t.Fatalf("first Release: %v", err)
			}
			h1, g1 := pl.Solves()
			if h1+g1 == 0 {
				t.Fatal("first release solved no LPs; the test is vacuous")
			}
			v2, err := pl.Release(context.Background(), 0.5, noise.NewRand(42))
			if err != nil {
				t.Fatalf("second Release: %v", err)
			}
			h2, g2 := pl.Solves()
			if h2 != h1 || g2 != g1 {
				t.Errorf("repeat release solved new LPs: H %d→%d, G %d→%d", h1, h2, g1, g2)
			}
			if v1 != v2 {
				t.Errorf("same seed, same ε, different release: %v vs %v", v1, v2)
			}
			// A fresh ε may probe a few new indices but must reuse the bulk.
			if _, err := pl.Release(context.Background(), 0.7, noise.NewRand(7)); err != nil {
				t.Fatalf("fresh-ε Release: %v", err)
			}
			if !isFinite(v1) {
				t.Errorf("release not finite: %v", v1)
			}
		})
	}
}

func TestReleaseBadEpsilon(t *testing.T) {
	pl, err := Compile(testGraphSource(t), &Spec{Kind: KindTriangles})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := pl.Release(context.Background(), eps, noise.NewRand(1)); !errors.Is(err, ErrSpec) {
			t.Errorf("ε=%v: %v, want ErrSpec", eps, err)
		}
	}
}

func TestReleaseCancellation(t *testing.T) {
	pl, err := Compile(testGraphSource(t), &Spec{Kind: KindTriangles})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.Release(ctx, 0.5, noise.NewRand(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Release: %v, want context.Canceled", err)
	}
}

// TestConcurrentReleases hammers one plan from many goroutines; run with
// -race this checks the solved ladder's locking discipline.
func TestConcurrentReleases(t *testing.T) {
	pl, err := Compile(testGraphSource(t), &Spec{Kind: KindTriangles})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps := 0.1 + 0.05*float64(i%8)
			if _, err := pl.Release(context.Background(), eps, noise.NewRand(int64(i))); err != nil {
				t.Errorf("Release %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestWarmMaterializesLadder checks that Warm computes sequence state (the
// Δ ladder and central X probes) without a release, and that it reuses the
// solved ladder on repeat.
func TestWarmMaterializesLadder(t *testing.T) {
	pl, err := Compile(testGraphSource(t), &Spec{Kind: KindTriangles})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Warm(context.Background(), 0.5); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	h1, g1 := pl.Solves()
	if h1+g1 == 0 {
		t.Fatal("Warm computed nothing")
	}
	// Warming the same ε again is free.
	if err := pl.Warm(context.Background(), 0.5); err != nil {
		t.Fatalf("second Warm: %v", err)
	}
	h2, g2 := pl.Solves()
	if h2 != h1 || g2 != g1 {
		t.Errorf("repeat Warm solved new LPs: H %d→%d, G %d→%d", h1, h2, g1, g2)
	}
	// A release still works and produces a finite value.
	v, err := pl.Release(context.Background(), 0.5, noise.NewRand(3))
	if err != nil || !isFinite(v) {
		t.Fatalf("Release after Warm: %v %v", v, err)
	}
	if err := pl.Warm(context.Background(), math.NaN()); !errors.Is(err, ErrSpec) {
		t.Fatalf("Warm(NaN): %v, want ErrSpec", err)
	}
}

// TestLiveSetInterrupt pins the shared-solve abort policy: a solve keeps
// running while any registered release is live, aborts once every waiter is
// gone, and runs to completion when nothing is registered (non-serving
// callers).
func TestLiveSetInterrupt(t *testing.T) {
	l := newLiveSet()
	if err := l.interrupted(); err != nil {
		t.Fatalf("empty set: %v, want nil", err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	idA := l.add(ctxA)
	idB := l.add(ctxB)
	if err := l.interrupted(); err != nil {
		t.Fatalf("two live releases: %v, want nil", err)
	}
	cancelA()
	if err := l.interrupted(); err != nil {
		t.Fatalf("one live release left: %v, want nil", err)
	}
	cancelB()
	if err := l.interrupted(); !errors.Is(err, context.Canceled) {
		t.Fatalf("all canceled: %v, want context.Canceled", err)
	}
	l.remove(idA)
	l.remove(idB)
	if err := l.interrupted(); err != nil {
		t.Fatalf("emptied set: %v, want nil", err)
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
