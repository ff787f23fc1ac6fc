package service

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/lp"
	"recmech/internal/noise"
)

// TestCompileParallelismNeverChangesAnswers runs the same seeded workload
// sequence through services built at different GOMAXPROCS, which sizes the
// shared compile pool, and requires bit-identical responses: the whole
// point of the pool is wall-clock, never values — recorded releases must
// replay the same no matter how the box that produced them was sized.
func TestCompileParallelismNeverChangesAnswers(t *testing.T) {
	queryAcrossGOMAXPROCS(t, []int{1, 2, 4}, []Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.3},
		{Dataset: "g", Kind: KindKTriangles, K: 2, Epsilon: 0.5},
		{Dataset: "g", Kind: KindTriangles, Privacy: "edge", Epsilon: 0.4},
		{Dataset: "g", Kind: KindPattern, PatternNodes: 3,
			PatternEdges: [][2]int{{0, 1}, {1, 2}}, Epsilon: 0.2},
	})
}

// TestWarmStartNeverChangesAnswers is the service-layer warm-start golden
// matrix: the pool size changes the order in which each plan fills its LP
// warm-start cache, and the answers must not move — including a sampled
// request, which has no LP state. The LP counters prove the warm path
// actually ran: every service applies some warm-start seed.
func TestWarmStartNeverChangesAnswers(t *testing.T) {
	procs := []int{1, 4}
	applied := queryAcrossGOMAXPROCS(t, procs, []Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.3},
		{Dataset: "g", Kind: KindKTriangles, K: 2, Epsilon: 0.5},
		{Dataset: "g", Kind: KindTriangles, Privacy: "edge", Epsilon: 0.4},
		{Dataset: "g", Kind: KindKStars, K: 3, Mode: ModeSampled, Epsilon: 0.2},
	})
	for i, n := range applied {
		if n == 0 {
			t.Errorf("GOMAXPROCS %d: no LP solve applied a warm-start seed", procs[i])
		}
	}
}

// queryAcrossGOMAXPROCS runs requests in order against one seeded 16-node
// graph through a fresh service built at each GOMAXPROCS in procs, and
// fails unless every service answers bit-identically to the first. It
// returns how many LP solves applied a warm-start seed under each service.
func queryAcrossGOMAXPROCS(t *testing.T, procs []int, requests []Request) []uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := graph.RandomAverageDegree(noise.NewRand(3), 16, 4)
	ctx := context.Background()
	var want []float64
	var applied []uint64
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		before := lp.ReadCounters().WarmApplied
		svc := New(Config{DatasetBudget: 100, Workers: 1, Seed: 9})
		if err := svc.AddGraph("g", g); err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, req := range requests {
			resp, err := svc.Query(ctx, req)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %+v: %v", p, req, err)
			}
			got = append(got, resp.Value)
		}
		applied = append(applied, lp.ReadCounters().WarmApplied-before)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("GOMAXPROCS %d, request %d: value %v differs from GOMAXPROCS %d's %v",
					p, i, got[i], procs[0], want[i])
			}
		}
	}
	return applied
}

// The pool surfaces in /v1/stats and as recmech_compile_pool_* metric
// families, sized by GOMAXPROCS at construction; a one-worker pool is the
// sequential compile, with no fan-out at all.
func TestCompilePoolStatsExposed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, wantSize := range []int{1, 3} {
		runtime.GOMAXPROCS(wantSize)
		svc := New(Config{Workers: 1})
		g := graph.RandomAverageDegree(noise.NewRand(4), 12, 3)
		if err := svc.AddGraph("g", g); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Query(context.Background(), Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.1}); err != nil {
			t.Fatal(err)
		}
		st := svc.Stats()
		if st.CompilePool.Size != wantSize {
			t.Errorf("CompilePool.Size = %d, want %d (GOMAXPROCS)", st.CompilePool.Size, wantSize)
		}
		if wantSize > 1 && st.CompilePool.FanoutsTotal == 0 {
			t.Error("CompilePool.FanoutsTotal = 0 after a fresh graph compile, want > 0")
		}
		if wantSize == 1 && st.CompilePool.FanoutsTotal != 0 {
			t.Errorf("CompilePool.FanoutsTotal = %d on a single-worker pool, want 0 (sequential compiles)",
				st.CompilePool.FanoutsTotal)
		}
		if st.CompilePool.Busy != 0 || st.CompilePool.Tasks != 0 {
			t.Errorf("pool gauges not drained: %+v", st.CompilePool)
		}
		var sb strings.Builder
		svc.MetricsRegistry().WritePrometheus(&sb)
		text := sb.String()
		for _, family := range []string{
			fmt.Sprintf("recmech_compile_pool_workers %d", wantSize),
			"recmech_compile_pool_tasks_total",
			"recmech_compile_pool_fanouts_total",
		} {
			if !strings.Contains(text, family) {
				t.Errorf("metrics output missing %q", family)
			}
		}
	}
}
