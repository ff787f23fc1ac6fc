package service

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/noise"
)

// TestCompileParallelismNeverChangesAnswers runs the same seeded workload
// sequence through services that differ only in -compile-parallelism and
// requires bit-identical responses: the whole point of the shared compile
// pool is wall-clock, never values — recorded releases must replay the same
// no matter how the box that produced them was sized.
func TestCompileParallelismNeverChangesAnswers(t *testing.T) {
	g := graph.RandomAverageDegree(noise.NewRand(3), 16, 4)
	requests := []Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.3},
		{Dataset: "g", Kind: KindKTriangles, K: 2, Epsilon: 0.5},
		{Dataset: "g", Kind: KindTriangles, Privacy: "edge", Epsilon: 0.4},
		{Dataset: "g", Kind: KindPattern, PatternNodes: 3,
			PatternEdges: [][2]int{{0, 1}, {1, 2}}, Epsilon: 0.2},
	}
	ctx := context.Background()
	var want []float64
	for _, parallelism := range []int{1, 2, 4} {
		svc := New(Config{DatasetBudget: 100, Workers: 1, CompileParallelism: parallelism, Seed: 9})
		if err := svc.AddGraph("g", g); err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, req := range requests {
			resp, err := svc.Query(ctx, req)
			if err != nil {
				t.Fatalf("parallelism %d: %+v: %v", parallelism, req, err)
			}
			got = append(got, resp.Value)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("parallelism %d, request %d: value %v differs from parallelism 1's %v",
					parallelism, i, got[i], want[i])
			}
		}
	}
}

// The pool surfaces in /v1/stats and as recmech_compile_pool_* metric
// families, sized by the config but capped at GOMAXPROCS (workers beyond
// the scheduler's parallelism could only time-slice).
func TestCompilePoolStatsExposed(t *testing.T) {
	svc := New(Config{Workers: 1, CompileParallelism: 3})
	g := graph.RandomAverageDegree(noise.NewRand(4), 12, 3)
	if err := svc.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(context.Background(), Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	wantSize := 3
	if max := runtime.GOMAXPROCS(0); wantSize > max {
		wantSize = max
	}
	st := svc.Stats()
	if st.CompilePool.Size != wantSize {
		t.Errorf("CompilePool.Size = %d, want %d (GOMAXPROCS cap)", st.CompilePool.Size, wantSize)
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
