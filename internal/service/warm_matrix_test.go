package service

import (
	"context"
	"math"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/lp"
	"recmech/internal/noise"
)

// TestWarmStartNeverChangesAnswers is the service-layer warm-start golden
// matrix: the same seeded workload sequence through services differing only
// in CompileParallelism, which changes the order in which each plan fills
// its LP warm-start cache, must produce bit-identical responses — including
// a sampled-mode request, which has no LP state. The LP counters prove the
// warm path actually ran: every service applies some warm-start seed.
func TestWarmStartNeverChangesAnswers(t *testing.T) {
	g := graph.RandomAverageDegree(noise.NewRand(3), 16, 4)
	requests := []Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.3},
		{Dataset: "g", Kind: KindKTriangles, K: 2, Epsilon: 0.5},
		{Dataset: "g", Kind: KindTriangles, Privacy: "edge", Epsilon: 0.4},
		{Dataset: "g", Kind: KindKStars, K: 3, Mode: "sampled", Epsilon: 0.2},
	}
	ctx := context.Background()
	var want []float64
	for _, parallelism := range []int{1, 4} {
		before := lp.ReadCounters()
		svc := New(Config{
			DatasetBudget: 100, Workers: 1, Seed: 9,
			CompileParallelism: parallelism,
		})
		if err := svc.AddGraph("g", g); err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, req := range requests {
			resp, err := svc.Query(ctx, req)
			if err != nil {
				t.Fatalf("parallelism=%d: %+v: %v", parallelism, req, err)
			}
			got = append(got, resp.Value)
		}
		if lp.ReadCounters().WarmApplied == before.WarmApplied {
			t.Errorf("parallelism=%d: no LP solve applied a warm-start seed", parallelism)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("parallelism=%d request %d: value %v differs from parallelism 1's %v",
					parallelism, i, got[i], want[i])
			}
		}
	}
}
