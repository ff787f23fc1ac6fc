package plan

import (
	"context"
	"fmt"
	"math"
	"testing"

	"recmech/internal/lp"
	"recmech/internal/noise"
	"recmech/internal/pool"
)

// TestGoldenWarmMatrix is the plan-layer warm-start golden matrix: every
// golden workload (plus a sampled-mode plan, which has no LP state) is
// compiled and released at compile parallelism 1 and 4, and every cell
// must reproduce, bit for bit, the releases of the sequential reference.
// Each plan's mechanism.Efficient warm-starts its ladder solves from the
// bases of earlier rungs, and the order in which it fills that cache
// depends on the parallelism; warm starting is a pure performance channel,
// so the first output bit it changes is a solver bug. The LP counters
// prove the warm path actually ran, and that the sampled plan never
// touched the solver.
func TestGoldenWarmMatrix(t *testing.T) {
	graphSrc, sqlSrc := goldenSources(t)
	ctx := context.Background()
	p := pool.New(4)

	specs := goldenSpecs()
	sampled := &Spec{Kind: KindTriangles, Mode: ModeSampled, SampleBudget: 500}
	if err := sampled.Validate(); err != nil {
		t.Fatal(err)
	}
	specs = append(specs, sampled)

	var applied uint64
	for _, spec := range specs {
		src := graphSrc
		if spec.Kind == KindSQL {
			src = sqlSrc
		}
		name, _ := spec.Key()
		if spec.Mode == ModeSampled {
			name += "/sampled"
		}

		// Reference: fully sequential.
		ref, err := Compile(src, spec)
		if err != nil {
			t.Fatalf("%s: reference Compile: %v", name, err)
		}
		type cell struct{ eps, v1, v2 float64 }
		var want []cell
		for _, eps := range []float64{0.3, 1.1} {
			rng := noise.NewRand(33)
			v1, err := ref.Release(ctx, eps, rng)
			if err != nil {
				t.Fatalf("%s: reference release: %v", name, err)
			}
			v2, err := ref.Release(ctx, eps, rng)
			if err != nil {
				t.Fatalf("%s: reference release: %v", name, err)
			}
			want = append(want, cell{eps, v1, v2})
		}

		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/workers=%d", name, workers)
			var workerPool *pool.Pool
			if workers > 1 {
				workerPool = p
			}
			before := lp.ReadCounters()
			pl, err := CompileContext(ctx, src, spec, workerPool)
			if err != nil {
				t.Fatalf("%s: Compile: %v", label, err)
			}
			for _, w := range want {
				rng := noise.NewRand(33)
				v1, err := pl.Release(ctx, w.eps, rng)
				if err != nil {
					t.Fatalf("%s: release: %v", label, err)
				}
				v2, err := pl.Release(ctx, w.eps, rng)
				if err != nil {
					t.Fatalf("%s: release: %v", label, err)
				}
				if math.Float64bits(v1) != math.Float64bits(w.v1) ||
					math.Float64bits(v2) != math.Float64bits(w.v2) {
					t.Fatalf("%s ε=%g: releases (%v, %v) differ from sequential (%v, %v)",
						label, w.eps, v1, v2, w.v1, w.v2)
				}
			}
			after := lp.ReadCounters()
			if spec.Mode == ModeSampled && after.Solves != before.Solves {
				t.Errorf("%s: sampled plan ran %d LP solves", label, after.Solves-before.Solves)
			}
			applied += after.WarmApplied - before.WarmApplied
		}
	}
	if applied == 0 {
		t.Error("no LP solve in the matrix applied a warm-start seed")
	}
}

// TestGoldenWarmMatrixWarmRelease extends the matrix across the Warm/Release
// split: a plan warmed sequentially or through the pool (the Warm-phase Δ
// and X searches fill the plan's ladder, warm-starting as they go) must
// still release the bits of an unwarmed sequential plan.
func TestGoldenWarmMatrixWarmRelease(t *testing.T) {
	graphSrc, _ := goldenSources(t)
	ctx := context.Background()
	p := pool.New(4)
	spec := &Spec{Kind: KindKStars, K: 3}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	ref, err := Compile(graphSrc, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Release(ctx, 0.5, noise.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		var workerPool *pool.Pool
		if workers > 1 {
			workerPool = p
		}
		pl, err := CompileContext(ctx, graphSrc, spec, workerPool)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Warm(ctx, 0.5); err != nil {
			t.Fatal(err)
		}
		got, err := pl.Release(ctx, 0.5, noise.NewRand(5))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: warmed release %v != unwarmed sequential %v", workers, got, want)
		}
	}
}
