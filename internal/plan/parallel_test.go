package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/noise"
	"recmech/internal/pool"
	"recmech/internal/query"
)

// goldenSpecs is the determinism test matrix: every workload kind the
// serving layer accepts, under both privacy models where they exist.
func goldenSpecs() []*Spec {
	specs := []*Spec{
		{Kind: KindSQL, Query: "SELECT x, y FROM visits WHERE x != 'q'"},
		{Kind: KindTriangles},
		{Kind: KindTriangles, EdgePrivacy: true},
		{Kind: KindKStars, K: 2},
		{Kind: KindKStars, K: 2, EdgePrivacy: true},
		{Kind: KindKTriangles, K: 2},
		{Kind: KindKTriangles, K: 2, EdgePrivacy: true},
		{Kind: KindPattern, PatternNodes: 4, PatternEdges: [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{Kind: KindPattern, PatternNodes: 4, PatternEdges: [][2]int{{0, 1}, {1, 2}, {2, 3}}, EdgePrivacy: true},
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			panic(err)
		}
	}
	return specs
}

func goldenSources(t testing.TB) (graphSrc, sqlSrc Source) {
	t.Helper()
	g := graph.RandomAverageDegree(noise.NewRand(11), 14, 3)
	const table = `
x y
a b @ pa & pb
b c @ pb & pc
c d @ pc & pd
d e @ pd & pe
a c @ pa & pc
b d @ pb & pd
`
	u := boolexpr.NewUniverse()
	rel, err := query.LoadTable(strings.NewReader(table), u)
	if err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	db := query.NewDatabase()
	db.Register("visits", rel)
	return Source{Graph: g}, Source{DB: db, Universe: u}
}

// TestGoldenParallelDeterminism is the acceptance golden test: for every
// workload kind and privacy model, a plan compiled and released through a
// real shared pool produces bit-identical seeded releases to the fully
// sequential path — across several ε values and consecutive draws, and
// stable across repeated parallel compiles (scheduling must never leak
// into a single output bit, or the durable replay cache would break).
func TestGoldenParallelDeterminism(t *testing.T) {
	graphSrc, sqlSrc := goldenSources(t)
	ctx := context.Background()
	p := pool.New(4)
	for _, spec := range goldenSpecs() {
		src := graphSrc
		if spec.Kind == KindSQL {
			src = sqlSrc
		}
		name, _ := spec.Key()
		serial, err := Compile(src, spec)
		if err != nil {
			t.Fatalf("%s: sequential Compile: %v", name, err)
		}
		for rep := 0; rep < 2; rep++ {
			parallel, err := CompileContext(ctx, src, spec, p)
			if err != nil {
				t.Fatalf("%s: parallel Compile: %v", name, err)
			}
			if parallel.NumParticipants() != serial.NumParticipants() {
				t.Fatalf("%s: |P| %d vs %d", name, parallel.NumParticipants(), serial.NumParticipants())
			}
			for _, eps := range []float64{0.3, 1.1} {
				rngS, rngP := noise.NewRand(77), noise.NewRand(77)
				for draw := 0; draw < 2; draw++ {
					vS, err := serial.Release(ctx, eps, rngS)
					if err != nil {
						t.Fatalf("%s: sequential release: %v", name, err)
					}
					vP, err := parallel.Release(ctx, eps, rngP)
					if err != nil {
						t.Fatalf("%s: parallel release: %v", name, err)
					}
					if math.Float64bits(vS) != math.Float64bits(vP) {
						t.Fatalf("%s rep %d ε=%g draw %d: parallel release %v != sequential %v",
							name, rep, eps, draw, vP, vS)
					}
				}
			}
		}
	}
}

// TestGoldenWarmDeterminism pins Warm: warming through the pool then
// releasing must be bit-identical to a cold sequential release (warming
// computes deterministic state only).
func TestGoldenWarmDeterminism(t *testing.T) {
	graphSrc, _ := goldenSources(t)
	ctx := context.Background()
	p := pool.New(4)
	spec := &Spec{Kind: KindKStars, K: 3}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cold, err := Compile(graphSrc, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := CompileContext(ctx, graphSrc, spec, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Warm(ctx, 0.5); err != nil {
		t.Fatal(err)
	}
	vC, err := cold.Release(ctx, 0.5, noise.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	vW, err := warm.Release(ctx, 0.5, noise.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(vC) != math.Float64bits(vW) {
		t.Fatalf("warmed parallel release %v != cold sequential %v", vW, vC)
	}
}

// TestCompileCancelHammer races concurrent CompileContext + Release calls
// against cancellation on one shared pool (run under -race): canceled
// compiles must fail with a context error, surviving ones must keep
// producing bit-identical releases, and the pool must drain back to idle.
// A cheap subset of the golden matrix keeps the hammer fast; the full
// matrix is covered by TestGoldenParallelDeterminism.
func TestCompileCancelHammer(t *testing.T) {
	graphSrc, sqlSrc := goldenSources(t)
	all := goldenSpecs()
	specs := []*Spec{all[0], all[1], all[3]} // sql, triangles, kstars
	p := pool.New(3)

	// Reference values, one per spec, sequentially.
	want := make([]float64, len(specs))
	for i, spec := range specs {
		src := graphSrc
		if spec.Kind == KindSQL {
			src = sqlSrc
		}
		pl, err := Compile(src, spec)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = pl.Release(context.Background(), 0.5, noise.NewRand(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for worker := 0; worker < 6; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (worker + rep) % len(specs)
				spec := specs[i]
				src := graphSrc
				if spec.Kind == KindSQL {
					src = sqlSrc
				}
				ctx, cancel := context.WithCancel(context.Background())
				if (worker+rep)%3 == 0 {
					cancel() // canceled before compile even starts
				}
				pl, err := CompileContext(ctx, src, spec, p)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("worker %d rep %d: compile error %v", worker, rep, err)
					}
					cancel()
					continue
				}
				got, err := pl.Release(ctx, 0.5, noise.NewRand(int64(i)))
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("worker %d rep %d: release error %v", worker, rep, err)
					}
				} else if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("worker %d rep %d: release %v, want %v", worker, rep, got, want[i])
				}
				cancel()
			}
		}(worker)
	}
	wg.Wait()
	st := p.Stats()
	if st.Busy != 0 || st.Tasks != 0 || st.Fanouts != 0 {
		t.Fatalf("pool not drained after hammer: %+v", st)
	}
}

// BenchmarkCompileScaling measures the full deterministic compile +
// first-release pipeline (enumeration shards + Δ ladder + central X search)
// at 1, 2 and 4 pool workers on a graph workload big enough for the ladder
// to dominate — the acceptance benchmark for the parallel compile engine.
func BenchmarkCompileScaling(b *testing.B) {
	g := graph.RandomAverageDegree(noise.NewRand(21), 150, 8)
	src := Source{Graph: g}
	spec := &Spec{Kind: KindTriangles}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// workers=1 is the sequential baseline: no pool at all, exactly
			// what a service at GOMAXPROCS=1 runs (see service.Service.compileWorkers).
			var p *pool.Pool
			if workers > 1 {
				p = pool.New(workers)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := CompileContext(ctx, src, spec, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pl.Release(ctx, 0.5, noise.NewRand(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
