package service

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/noise"
	"recmech/internal/query"
	"recmech/internal/sfcache"
	"recmech/internal/store"
)

func benchService(b *testing.B) *Service {
	b.Helper()
	// RECMECH_TRACE_SAMPLE lets CI A/B the prepared hot path with warm-query
	// tracing forced on (=1) against the default-off configuration, to
	// measure tracing overhead under identical load.
	sample, _ := strconv.Atoi(os.Getenv("RECMECH_TRACE_SAMPLE"))
	svc := New(Config{
		DatasetBudget:    1e18, // effectively unmetered: the benchmark measures the hot path
		DefaultEpsilon:   0.5,
		Workers:          1,
		Seed:             1,
		TraceSampleEvery: sample,
	})
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
		b.Fatalf("LoadTable: %v", err)
	}
	db := query.NewDatabase()
	db.Register("visits", rel)
	svc.AddRelational("med", u, db)
	return svc
}

// BenchmarkServiceQuery measures the executor's full hot path — parse,
// build the sensitive relation, prepare the mechanism (LP relaxation and
// the sequences H/G), release — by making every query distinct so the
// release cache never short-circuits it.
func BenchmarkServiceQuery(b *testing.B) {
	svc := benchService(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{
			Dataset: "med",
			Kind:    KindSQL,
			Query:   fmt.Sprintf("SELECT x, y FROM visits WHERE x != 'u%d'", i),
			Epsilon: 0.5,
		}
		resp, err := svc.Query(ctx, req)
		if err != nil {
			b.Fatalf("Query: %v", err)
		}
		if resp.Cached {
			b.Fatal("benchmark query unexpectedly cached")
		}
	}
}

// BenchmarkPreparedRelease measures the plan-cache hit path with fresh ε:
// every iteration is a new release (a new ε means the release cache cannot
// replay it and its full ε is spent), but the expensive deterministic state
// — parse, canonicalize, sensitive relation, LP encoding, solved H/G
// entries — is shared through the plan compiled on the first iteration.
// This is the acceptance benchmark: it must be ≥ 5× faster than
// BenchmarkServiceQuery, the fresh-query path of the same workload.
func BenchmarkPreparedRelease(b *testing.B) {
	svc := benchService(b)
	ctx := context.Background()
	const query = "SELECT x, y FROM visits WHERE x != 'warm'"
	// Prepare-only priming: the plan and its solved ladder are warmed the
	// way a /v2/prepare client would, spending zero ε, so the loop measures
	// exactly what a prepared client pays per release.
	if _, err := svc.Prepare(ctx, Request{Dataset: "med", Kind: KindSQL, Query: query, Epsilon: 0.5}); err != nil {
		b.Fatalf("priming prepare: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{
			Dataset: "med",
			Kind:    KindSQL,
			Query:   query,
			Epsilon: 0.5 + float64(i+1)*1e-9, // fresh ε: never a release-cache replay
		}
		resp, err := svc.Query(ctx, req)
		if err != nil {
			b.Fatalf("Query: %v", err)
		}
		if resp.Cached {
			b.Fatal("prepared release unexpectedly replayed")
		}
	}
	reportHitRatio(b, "plan_hit_ratio", svc.plans.Stats())
}

// reportHitRatio attaches a cache's shared-answer ratio to the benchmark
// output as a custom unit, which cmd/benchreport lifts into the JSON
// report's "extra" object.
func reportHitRatio(b *testing.B, unit string, st sfcache.Stats) {
	if lookups := st.Hits + st.Misses + st.Coalesced; lookups > 0 {
		b.ReportMetric(float64(st.Hits+st.Coalesced)/float64(lookups), unit)
	}
}

// BenchmarkAdvise measures the zero-ε accuracy path with a warm plan: both
// directions per iteration (the Theorem 1 bound at ε, plus the inverse
// grid-and-bisection search for a target error), which is what a tenant
// tuning a query's spend pays per call after the first.
func BenchmarkAdvise(b *testing.B) {
	svc := benchService(b)
	svc.cfg.ExposeAccuracy = true // the advise path is gated; flip the opt-in
	ctx := context.Background()
	const q = "SELECT x, y FROM visits WHERE x != 'warm'"
	req := AdviseRequest{Request: Request{Dataset: "med", Kind: KindSQL, Query: q, Epsilon: 0.5}}
	// Priming advise: compiles the plan and pays the one G_{|P|}
	// solve, and its answer supplies an achievable inverse target.
	primed, err := svc.Advise(ctx, req)
	if err != nil {
		b.Fatalf("priming advise: %v", err)
	}
	req.TargetError = primed.AtEpsilon.Error * 1.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := svc.Advise(ctx, req)
		if err != nil {
			b.Fatalf("Advise: %v", err)
		}
		if info.ForTargetError == nil {
			b.Fatal("advise answered without the inverse direction")
		}
	}
}

// BenchmarkBatchJob measures the async job pipeline end to end: submit a
// batch of distinct queries (one atomic reservation), wait for completion.
// Reported per batch of batchSize queries.
func BenchmarkBatchJob(b *testing.B) {
	const batchSize = 8
	svc := benchService(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([]Request, batchSize)
		for j := range items {
			items[j] = Request{
				Dataset: "med",
				Kind:    KindSQL,
				Query:   fmt.Sprintf("SELECT x, y FROM visits WHERE x != 'b%d_%d'", i, j),
				Epsilon: 0.1,
			}
		}
		info, err := svc.SubmitJob(items)
		if err != nil {
			b.Fatalf("SubmitJob: %v", err)
		}
		final, err := svc.WaitJob(ctx, info.ID)
		if err != nil {
			b.Fatalf("WaitJob: %v", err)
		}
		if final.State != JobStateDone {
			b.Fatalf("job state %q: %+v", final.State, final)
		}
	}
}

// BenchmarkServiceQueryParallel measures the fresh-compile path of the
// acceptance workload — a graph dataset big enough for the ladder's LP
// solves to dominate — at GOMAXPROCS 1, 2 and 4, which size the shared
// compile pool. Every iteration registers the graph under a fresh dataset
// name, so the plan cache can never short-circuit the compile. On a
// multicore box the 4-worker run should be ≥ 2× the 1-worker run; on a
// single core the numbers mostly certify that the fan-out machinery costs
// nothing when it cannot help.
func BenchmarkServiceQueryParallel(b *testing.B) {
	g := graph.RandomAverageDegree(noise.NewRand(17), 120, 7)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			svc := New(Config{
				DatasetBudget:  1e18,
				DefaultEpsilon: 0.5,
				Workers:        1,
				Seed:           1,
			})
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("g%d", i)
				b.StopTimer() // registration is not the path under test
				if err := svc.AddGraph(name, g); err != nil {
					b.Fatalf("AddGraph: %v", err)
				}
				b.StartTimer()
				resp, err := svc.Query(ctx, Request{Dataset: name, Kind: KindTriangles, Epsilon: 0.5})
				if err != nil {
					b.Fatalf("Query: %v", err)
				}
				if resp.Cached {
					b.Fatal("fresh compile unexpectedly cached")
				}
			}
		})
	}
}

// BenchmarkServiceQueryCached measures the replay path: identical queries
// served from the release cache at zero ε.
func BenchmarkServiceQueryCached(b *testing.B) {
	svc := benchService(b)
	ctx := context.Background()
	req := Request{Dataset: "med", Kind: KindSQL, Query: "SELECT x FROM visits", Epsilon: 0.5}
	if _, err := svc.Query(ctx, req); err != nil {
		b.Fatalf("priming query: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Query(ctx, req)
		if err != nil {
			b.Fatalf("Query: %v", err)
		}
		if !resp.Cached {
			b.Fatal("replay missed the cache")
		}
	}
	reportHitRatio(b, "hit_ratio", svc.cache.Stats())
}

// BenchmarkAppendGraph measures one PATCH of three new edges on a durable
// service (fsync on) holding a 100k-node, 200k-edge graph: parse the delta,
// check it against the current snapshot, build the next generation, journal
// the delta and register it. The keep-window fold runs at its default
// cadence, so one append in every deltaKeepWindow also re-materializes the
// whole edge list.
func BenchmarkAppendGraph(b *testing.B) {
	const n, m = 100_000, 200_000
	rng := noise.NewRand(1)
	g := graph.RandomGNM(rng, n, m)
	st, err := store.Open(store.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	svc, warns := NewWithStore(Config{DatasetBudget: 100, Workers: 1, Seed: 1}, st)
	if len(warns) != 0 {
		b.Fatalf("boot warnings: %v", warns)
	}
	if _, err := svc.UploadGraph("g", []byte(graphText(g))); err != nil {
		b.Fatal(err)
	}
	// Every delta is drawn up front: three edges in neither the graph nor
	// an earlier delta, so no append is rejected as a repeat.
	seen := make(map[graph.Edge]bool)
	deltas := make([]string, b.N)
	for i := range deltas {
		var sb strings.Builder
		for k := 0; k < 3; {
			u, v := rng.Intn(n), rng.Intn(n)
			e := graph.Edge{U: min(u, v), V: max(u, v)}
			if u == v || g.HasEdge(u, v) || seen[e] {
				continue
			}
			seen[e] = true
			fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
			k++
		}
		deltas[i] = sb.String()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.AppendDataset("g", AppendRequest{Edges: deltas[i]}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	svc.rewarmWG.Wait()
}
