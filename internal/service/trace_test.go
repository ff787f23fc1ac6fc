package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"recmech/internal/graph"
	"recmech/internal/lp"
	"recmech/internal/noise"
	"recmech/internal/trace"
)

// traceTestService returns an in-memory service over a small random graph,
// with full config control (the graph is registered as "g"). The graph is
// deliberately tiny: the k-star LP ladder's simplex cost grows steeply with
// node count, and these tests must stay affordable under -race.
func traceTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	svc := New(cfg)
	g := graph.RandomAverageDegree(noise.NewRand(7), 18, 4)
	if err := svc.AddGraph("g", g); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	return svc
}

// spanNames flattens a span tree into the set of names it contains.
func spanNames(n *trace.SpanNode, into map[string]int) {
	if n == nil {
		return
	}
	into[n.Name]++
	for _, c := range n.Children {
		spanNames(c, into)
	}
}

// checkNested fails the test if any child span lies outside its parent's
// [offset, offset+duration] window (with a small float tolerance).
func checkNested(t *testing.T, n *trace.SpanNode) {
	t.Helper()
	const eps = 1e-6
	for _, c := range n.Children {
		if c.OffsetMS+eps < n.OffsetMS || c.OffsetMS+c.DurationMS > n.OffsetMS+n.DurationMS+eps {
			t.Errorf("span %q [%.4f,%.4f] escapes parent %q [%.4f,%.4f]",
				c.Name, c.OffsetMS, c.OffsetMS+c.DurationMS, n.Name, n.OffsetMS, n.OffsetMS+n.DurationMS)
		}
		checkNested(t, c)
	}
}

// TestFreshQueryTraced checks the core policy: a query that compiles a fresh
// plan records a full span tree; warm repeats and replays at default
// settings record nothing.
func TestFreshQueryTraced(t *testing.T) {
	svc := traceTestService(t, Config{DatasetBudget: 10, Seed: 1})
	ctx := context.Background()

	if _, err := svc.Query(ctx, Request{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.4}); err != nil {
		t.Fatalf("fresh query: %v", err)
	}
	sums := svc.Traces()
	if len(sums) != 1 {
		t.Fatalf("fresh compile should record exactly one trace, got %d", len(sums))
	}
	if sums[0].Name != "query" {
		t.Fatalf("root span name = %q, want query", sums[0].Name)
	}
	td, err := svc.Trace(sums[0].ID)
	if err != nil {
		t.Fatalf("Trace(%s): %v", sums[0].ID, err)
	}
	names := map[string]int{}
	spanNames(td.Root, names)
	for _, want := range []string{"query", "budget.reserve", "budget.commit",
		"plan.compile", "enumerate", "encode", "release", "delta.search", "x.search", "noise.draw", "lp.solve"} {
		if names[want] == 0 {
			t.Errorf("trace is missing a %q span (have %v)", want, names)
		}
	}
	checkNested(t, td.Root)
	if got := td.Root.Attrs["outcome"]; got != "spent" {
		t.Errorf("root outcome = %v, want spent", got)
	}
	if got := td.Root.Attrs["planHit"]; got != false {
		t.Errorf("root planHit = %v, want false", got)
	}
	if got := td.Root.Attrs["dataset"]; got != "g" {
		t.Errorf("root dataset = %v, want g", got)
	}

	// Warm repeat at a new ε: plan-cached, untraced at default settings.
	if _, err := svc.Query(ctx, Request{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.3}); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	// Exact replay: release-cached, untraced.
	if _, err := svc.Query(ctx, Request{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.4}); err != nil {
		t.Fatalf("replay query: %v", err)
	}
	if got := len(svc.Traces()); got != 1 {
		t.Fatalf("warm and replay queries must not trace at defaults; have %d traces", got)
	}
	if st := svc.Tracer().TracerStats(); st.Finished != 1 || st.Retained != 1 {
		t.Fatalf("tracer stats after one traced query: %+v", st)
	}
}

// TestPrepareTraceAndProfile checks that a fresh prepare is traced and
// returns the plan's compile profile, and that a prepare hitting the plan
// cache returns the retained profile without recording a trace.
func TestPrepareTraceAndProfile(t *testing.T) {
	svc := traceTestService(t, Config{DatasetBudget: 10, Seed: 1})
	ctx := context.Background()

	info, err := svc.Prepare(ctx, Request{Dataset: "g", Kind: KindTriangles})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if info.TraceID == "" {
		t.Fatal("fresh prepare did not record a trace")
	}
	if info.Compile == nil || info.Compile.Kind != KindTriangles || info.Compile.TotalSeconds <= 0 {
		t.Fatalf("fresh prepare compile profile: %+v", info.Compile)
	}
	td, err := svc.Trace(info.TraceID)
	if err != nil {
		t.Fatalf("Trace(%s): %v", info.TraceID, err)
	}
	if td.Root.Name != "prepare" {
		t.Fatalf("prepare root span = %q", td.Root.Name)
	}
	names := map[string]int{}
	spanNames(td.Root, names)
	for _, want := range []string{"plan.compile", "plan.warm", "delta.search", "x.search"} {
		if names[want] == 0 {
			t.Errorf("prepare trace missing %q (have %v)", want, names)
		}
	}

	again, err := svc.Prepare(ctx, Request{Dataset: "g", Kind: KindTriangles})
	if err != nil {
		t.Fatalf("second prepare: %v", err)
	}
	if !again.AlreadyPrepared || again.TraceID != "" {
		t.Fatalf("second prepare should hit untraced: %+v", again)
	}
	if again.Compile == nil || again.Compile.TotalSeconds != info.Compile.TotalSeconds {
		t.Fatalf("retained profile diverged: %+v vs %+v", again.Compile, info.Compile)
	}

	// The executor aggregate saw exactly one compile.
	if cs := svc.compiles.stats(); cs.Count != 1 || cs.Last == nil || cs.Last.Kind != KindTriangles {
		t.Fatalf("CompileStats after one compile: %+v", cs)
	}
}

// TestTraceHTTP drives the trace surface over HTTP: the response header on
// traced requests (and its absence on warm ones), the list and fetch
// endpoints, and the typed 404.
func TestTraceHTTP(t *testing.T) {
	svc := traceTestService(t, Config{DatasetBudget: 10, Seed: 1})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, raw
	}

	resp, raw := post("/v2/query", `{"dataset":"g","kind":"triangles","epsilon":0.5}`)
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}
	tid := resp.Header.Get("X-Recmech-Trace-Id")
	if tid == "" {
		t.Fatal("fresh query response carries no X-Recmech-Trace-Id")
	}
	if bytes.Contains(raw, []byte("traceId")) {
		t.Fatalf("trace ID leaked into the Response body (it is the WAL replay payload): %s", raw)
	}

	// Warm query: no trace, no header.
	resp, raw = post("/v2/query", `{"dataset":"g","kind":"triangles","epsilon":0.25}`)
	if resp.StatusCode != 200 {
		t.Fatalf("warm query: %d %s", resp.StatusCode, raw)
	}
	if h := resp.Header.Get("X-Recmech-Trace-Id"); h != "" {
		t.Fatalf("warm query unexpectedly traced: %q", h)
	}

	// The list endpoint returns the fresh query's trace, newest first.
	lresp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []trace.Summary `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Traces) != 1 || list.Traces[0].ID != tid {
		t.Fatalf("GET /v1/traces = %+v, want the one trace %s", list.Traces, tid)
	}

	gresp, err := http.Get(ts.URL + "/v1/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	var td trace.TraceData
	if err := json.NewDecoder(gresp.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != 200 || td.ID != tid || td.Root == nil || td.Root.Name != "query" {
		t.Fatalf("GET /v1/traces/%s: %d %+v", tid, gresp.StatusCode, td)
	}

	nresp, err := http.Get(ts.URL + "/v1/traces/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	nraw, _ := io.ReadAll(nresp.Body)
	nresp.Body.Close()
	if nresp.StatusCode != 404 || !bytes.Contains(nraw, []byte("unknown_trace")) {
		t.Fatalf("unknown trace: %d %s", nresp.StatusCode, nraw)
	}
}

// TestJobItemsTraced checks that every async job item records a trace —
// replays included — and that the per-item trace IDs surface in the job
// snapshot and resolve to retained traces.
func TestJobItemsTraced(t *testing.T) {
	svc := traceTestService(t, Config{DatasetBudget: 10, Seed: 1})
	ctx := context.Background()

	// Pre-release one query so the job's second item is a pure replay.
	if _, err := svc.Query(ctx, Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}

	info, err := svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.3},
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5}, // replay
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	done, err := svc.WaitJob(ctx, info.ID)
	if err != nil || done.State != JobStateDone {
		t.Fatalf("job did not finish cleanly: %+v, %v", done, err)
	}
	seen := map[string]bool{}
	for i, it := range done.Items {
		if it.TraceID == "" {
			t.Fatalf("item %d has no trace ID: %+v", i, it)
		}
		if seen[it.TraceID] {
			t.Fatalf("trace ID %s reused across items", it.TraceID)
		}
		seen[it.TraceID] = true
		td, err := svc.Trace(it.TraceID)
		if err != nil {
			t.Fatalf("item %d trace %s: %v", i, it.TraceID, err)
		}
		wantOutcome := "spent"
		if i == 1 {
			wantOutcome = "replayed"
		}
		if got := td.Root.Attrs["outcome"]; got != wantOutcome {
			t.Errorf("item %d outcome = %v, want %s", i, got, wantOutcome)
		}
	}
}

// TestWarmSampling checks TraceSampleEvery: at 1-in-1 every warm query is
// traced too.
func TestWarmSampling(t *testing.T) {
	svc := traceTestService(t, Config{DatasetBudget: 10, Seed: 1, TraceSampleEvery: 1})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		eps := 0.1 * float64(i+1)
		if _, err := svc.Query(ctx, Request{Dataset: "g", Kind: KindTriangles, Epsilon: eps}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(svc.Traces()); got != 3 {
		t.Fatalf("with TraceSampleEvery=1 all 3 queries should trace, got %d", got)
	}
}

// TestLPSolveSpansOnePerSolvedRung pins the lp.solve spans under forced
// tracing: a traced release records one span for each ladder rung it
// solves — G_{|P|} of the accuracy prediction included — and none for a
// rung the plan already holds.
func TestLPSolveSpansOnePerSolvedRung(t *testing.T) {
	svc := traceTestService(t, Config{DatasetBudget: 10, Seed: 1, TraceSampleEvery: 1})
	ctx := context.Background()
	// query runs one request and returns its lp.solve spans per rung, the
	// LP solves it ran, and whether it replayed a recorded release.
	query := func(eps float64) (map[string]int, int, bool) {
		t.Helper()
		old := map[string]bool{}
		for _, s := range svc.Traces() {
			old[s.ID] = true
		}
		before := lp.ReadCounters().Solves
		resp, err := svc.Query(ctx, Request{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: eps})
		if err != nil {
			t.Fatalf("ε=%g: %v", eps, err)
		}
		solves := int(lp.ReadCounters().Solves - before)
		spans := map[string]int{}
		for _, s := range svc.Traces() {
			if old[s.ID] {
				continue
			}
			td, err := svc.Trace(s.ID)
			if err != nil {
				t.Fatal(err)
			}
			lpSolveSpans(td.Root, spans)
		}
		return spans, solves, resp.Cached
	}
	total := func(spans map[string]int) int {
		n := 0
		for _, c := range spans {
			n += c
		}
		return n
	}

	fresh, solves, _ := query(0.4)
	for rung, n := range fresh {
		if n != 1 {
			t.Errorf("fresh query: rung %s has %d lp.solve spans, want 1", rung, n)
		}
	}
	if len(fresh) == 0 || total(fresh) != solves {
		t.Fatalf("fresh query: %d lp.solve spans for %d LP solves, want one per solve", total(fresh), solves)
	}

	spans, solves, cached := query(0.4)
	if !cached || solves != 0 || len(spans) != 0 {
		t.Fatalf("repeat at the same ε: cached=%v, %d LP solves, spans %v; want a replay with none", cached, solves, spans)
	}

	// A nudged ε misses the release cache but reuses the plan: only rungs
	// the fresh query left unsolved may be solved, each with one span.
	spans, solves, cached = query(0.4 + 1e-9)
	if cached {
		t.Fatal("nudged ε replayed a recorded release")
	}
	for rung, n := range spans {
		if n != 1 || fresh[rung] > 0 {
			t.Errorf("nudged ε: rung %s has %d lp.solve spans (%d in the fresh query), want 1 and 0", rung, n, fresh[rung])
		}
	}
	if total(spans) != solves {
		t.Fatalf("nudged ε: %d lp.solve spans for %d LP solves", total(spans), solves)
	}
}

// lpSolveSpans counts the lp.solve spans of a span tree by rung.
func lpSolveSpans(n *trace.SpanNode, into map[string]int) {
	if n == nil {
		return
	}
	if n.Name == "lp.solve" {
		into[fmt.Sprintf("%v_%v", n.Attrs["seq"], n.Attrs["i"])]++
	}
	for _, c := range n.Children {
		lpSolveSpans(c, into)
	}
}

// TestSlowQueryLogService wires the slow-query log at a threshold every
// query beats and checks one structured line per traced query lands.
func TestSlowQueryLogService(t *testing.T) {
	svc := traceTestService(t, Config{DatasetBudget: 10, Seed: 1})
	var buf syncBuffer
	svc.Tracer().SetSlowQueryLog(time.Nanosecond, &buf)
	if _, err := svc.Query(context.Background(), Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, `"msg":"slow_query"`) {
		t.Fatalf("slow-query log did not fire: %q", line)
	}
	var rec struct {
		TraceID string          `json:"traceId"`
		Trace   trace.TraceData `json:"trace"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query line is not one JSON object: %v (%q)", err, line)
	}
	if rec.TraceID == "" || rec.Trace.Root == nil {
		t.Fatalf("slow-query record incomplete: %+v", rec)
	}
}

// syncBuffer is an io.Writer safe for the tracer's Finish goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAccessLogCarriesTraceID checks the structured access log joins
// against the trace store via the traceId field.
func TestAccessLogCarriesTraceID(t *testing.T) {
	svc := traceTestService(t, Config{DatasetBudget: 10, Seed: 1})
	var buf syncBuffer
	logger, err := NewAccessLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(WithAccessLog(NewHandler(svc), logger))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"dataset":"g","kind":"kstars","k":2,"epsilon":0.4}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tid := resp.Header.Get("X-Recmech-Trace-Id")
	if tid == "" {
		t.Fatal("fresh query carries no trace header")
	}
	var entry AccessEntry
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("access log line: %v (%q)", err, buf.String())
	}
	if entry.TraceID != tid {
		t.Fatalf("access log traceId = %q, header = %q", entry.TraceID, tid)
	}
}

// TestTraceHammer exercises tracing under real concurrency (run with
// -race): distinct fresh compiles, coalesced identical compiles, warm
// repeats, and a small retention ring, all at once. Every trace must keep a
// well-nested tree, IDs must never collide, and the ring must stay bounded.
func TestTraceHammer(t *testing.T) {
	const ring = 8
	svc := New(Config{DatasetBudget: 1e9, Seed: 1, Workers: 4, TraceRingEntries: ring})
	g := graph.RandomAverageDegree(noise.NewRand(7), 18, 4)
	if err := svc.AddGraph("g", g); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				// Workers pair up on k (w/2): every compile has at least one
				// coalescing or plan-cache-racing twin.
				k := 2 + w/2
				eps := 0.001 * float64(w*131+i+1)
				if _, err := svc.Query(ctx, Request{Dataset: "g", Kind: KindKStars, K: k, Epsilon: eps}); err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sums := svc.Traces()
	if len(sums) > ring {
		t.Fatalf("ring holds %d traces, bound is %d", len(sums), ring)
	}
	seen := map[string]bool{}
	for _, s := range sums {
		if seen[s.ID] {
			t.Fatalf("duplicate trace ID %s", s.ID)
		}
		seen[s.ID] = true
		td, err := svc.Trace(s.ID)
		if err != nil {
			t.Fatalf("retained trace %s not fetchable: %v", s.ID, err)
		}
		if td.Root == nil || td.Root.Name != "query" {
			t.Fatalf("trace %s malformed root: %+v", s.ID, td.Root)
		}
		checkNested(t, td.Root)
	}
	st := svc.Tracer().TracerStats()
	if st.Started != st.Finished {
		t.Fatalf("tracer leaked traces: %+v", st)
	}
	if st.Retained > ring {
		t.Fatalf("retained %d > ring %d", st.Retained, ring)
	}
}
