package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"recmech"
)

// scrapeMetrics fetches GET /metrics and parses the Prometheus text format
// strictly into sample-id → value, so the test doubles as a format check.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			t.Fatalf("malformed exposition line %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate sample %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsCountersMoveUnderMixedWorkload drives a concurrent v1+v2
// workload — fresh queries, replays, prepares, an async job, a budget
// rejection, a bad request — and asserts the counters of every
// instrumented subsystem moved. Run with -race in CI, which also makes it
// a data-race check on the whole instrumentation layer.
func TestMetricsCountersMoveUnderMixedWorkload(t *testing.T) {
	ts, svc := newTestServer(t, 1000)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Fresh: a distinct SQL query each time.
				postQuery(t, ts, recmech.ServiceRequest{
					Dataset: "med", Kind: recmech.KindSQL,
					Query:   fmt.Sprintf("SELECT x, y FROM visits WHERE x != 'w%d_%d'", w, i),
					Epsilon: 0.5,
				})
				// Replay: the identical triangles query from every worker.
				postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5})
				// Plan hit: same spec at a per-iteration ε.
				postQuery(t, ts, recmech.ServiceRequest{
					Dataset: "g", Kind: recmech.KindTriangles,
					Epsilon: 0.25 + float64(w*10+i)*1e-6,
				})
			}
		}(w)
	}
	wg.Wait()

	// Prepare (zero ε), a failed lookup, a budget rejection, a bad request.
	doReq(t, ts, "POST", "/v2/prepare", `{"dataset":"g","kind":"kstars","k":2}`, http.StatusOK)
	doReq(t, ts, "POST", "/v2/query", `{"dataset":"nope","kind":"triangles"}`, http.StatusNotFound)
	doReq(t, ts, "POST", "/v2/query", `{"dataset":"g","kind":"triangles","epsilon":99999}`, http.StatusTooManyRequests)
	doReq(t, ts, "POST", "/v2/query", `{"dataset":"g","kind":"bogus"}`, http.StatusBadRequest)

	// One async job, run to completion.
	var job recmech.JobInfo
	body := doReq(t, ts, "POST", "/v2/jobs",
		`{"queries":[{"dataset":"g","kind":"kstars","k":2,"epsilon":0.11},{"dataset":"med","kind":"sql","query":"SELECT x FROM visits","epsilon":0.12}]}`,
		http.StatusAccepted)
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("job submit response: %v", err)
	}
	if _, err := svc.WaitJob(t.Context(), job.ID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}

	got := scrapeMetrics(t, ts)
	positive := []string{
		// Queries: all three sources and their latency histograms.
		`recmech_queries_total{source="fresh"}`,
		`recmech_queries_total{source="plan_hit"}`,
		`recmech_queries_total{source="replay"}`,
		`recmech_query_duration_seconds_count{source="fresh"}`,
		`recmech_query_duration_seconds_count{source="plan_hit"}`,
		`recmech_query_duration_seconds_count{source="replay"}`,
		`recmech_queue_wait_seconds_count`,
		// Failures.
		`recmech_query_failures_total{reason="budget_exhausted"}`,
		`recmech_query_failures_total{reason="bad_request"}`,
		// Budget accountant.
		`recmech_budget_reservations_total{result="ok"}`,
		`recmech_budget_reservations_total{result="rejected"}`,
		`recmech_budget_commits_total`,
		// Caches.
		`recmech_cache_events_total{cache="release",event="hit"}`,
		`recmech_cache_events_total{cache="release",event="miss"}`,
		`recmech_cache_events_total{cache="plan",event="hit"}`,
		`recmech_cache_events_total{cache="plan",event="miss"}`,
		`recmech_cache_entries{cache="release"}`,
		`recmech_cache_entries{cache="plan"}`,
		// Jobs.
		`recmech_jobs_total{outcome="submitted"}`,
		`recmech_jobs_total{outcome="done"}`,
		// LP solver (process-global).
		`recmech_lp_solves_total`,
		`recmech_lp_pivots_total`,
		// Budget gauges per dataset.
		`recmech_budget_epsilon_spent{dataset="g"}`,
		`recmech_budget_epsilon_remaining{dataset="med"}`,
		// Per-dataset query counters.
		`recmech_dataset_queries_total{dataset="g",outcome="fresh"}`,
		`recmech_dataset_queries_total{dataset="g",outcome="replayed"}`,
		`recmech_dataset_epsilon_committed{dataset="med"}`,
		// HTTP layer.
		`recmech_http_requests_total{code="200"}`,
		`recmech_http_requests_total{code="404"}`,
		`recmech_http_requests_total{code="400"}`,
		`recmech_http_requests_total{code="429"}`,
		`recmech_http_request_duration_seconds_count`,
		// Gauges that must be present and sane.
		`recmech_uptime_seconds`,
		`recmech_workers`,
	}
	for _, id := range positive {
		if got[id] <= 0 {
			t.Errorf("%s = %v, want > 0", id, got[id])
		}
	}
	// Histogram buckets must be cumulative and consistent with _count.
	if inf, cnt := got[`recmech_query_duration_seconds_bucket{source="fresh",le="+Inf"}`],
		got[`recmech_query_duration_seconds_count{source="fresh"}`]; inf != cnt {
		t.Errorf("fresh duration +Inf bucket %v != count %v", inf, cnt)
	}
	// 20 fresh SQL queries across the workers, plus the job's SQL item.
	if v := got[`recmech_queries_total{source="fresh"}`]; v < 21 {
		t.Errorf("fresh queries = %v, want ≥ 21", v)
	}
	// Budget gauges must reconcile: total = spent + remaining (+ reserved 0).
	tot := got[`recmech_budget_epsilon_granted{dataset="g"}`]
	if spent, rem := got[`recmech_budget_epsilon_spent{dataset="g"}`],
		got[`recmech_budget_epsilon_remaining{dataset="g"}`]; tot == 0 || spent+rem > tot+1e-6 || spent+rem < tot-1e-6 {
		t.Errorf("budget gauges inconsistent: total=%v spent=%v remaining=%v", tot, spent, rem)
	}
}

// doReq issues a request and asserts the status, returning the response
// body.
func doReq(t *testing.T, ts *httptest.Server, method, path, body string, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, resp.StatusCode, wantStatus, b)
	}
	return b
}

// TestStatsEndpointsDeterministic drives a fixed sequential workload and
// asserts the exact counters GET /v1/stats and GET
// /v1/datasets/{name}/stats report.
func TestStatsEndpointsDeterministic(t *testing.T) {
	ts, _ := newTestServer(t, 100)

	// Two fresh answers (the second a plan hit at new ε), one replay.
	postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5})
	postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.25})
	postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5})

	var st recmech.ServiceStats
	if err := json.Unmarshal(doReq(t, ts, "GET", "/v1/stats", "", http.StatusOK), &st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Queries.Fresh != 1 || st.Queries.PlanHit != 1 || st.Queries.Replayed != 1 {
		t.Errorf("queries = %+v, want fresh=1 planHit=1 replayed=1", st.Queries)
	}
	if st.Datasets != 2 {
		t.Errorf("datasets = %d, want 2", st.Datasets)
	}
	rc, ok := st.Caches["release"]
	if !ok || rc.Hits != 1 || rc.Misses != 2 {
		t.Errorf("release cache = %+v, want hits=1 misses=2", rc)
	}
	pc := st.Caches["plan"]
	if pc.Hits != 1 || pc.Misses != 1 {
		t.Errorf("plan cache = %+v, want hits=1 misses=1", pc)
	}
	if st.UptimeSeconds <= 0 || st.Workers.Total != 4 {
		t.Errorf("uptime=%v workers=%+v", st.UptimeSeconds, st.Workers)
	}
	if st.LP.Solves == 0 {
		t.Errorf("lp.solves = 0, want > 0")
	}
	if st.Store != nil {
		t.Errorf("store stats present on an in-memory service: %+v", st.Store)
	}

	var ds recmech.DatasetStats
	if err := json.Unmarshal(doReq(t, ts, "GET", "/v1/datasets/g/stats", "", http.StatusOK), &ds); err != nil {
		t.Fatalf("dataset stats decode: %v", err)
	}
	if ds.Dataset != "g" || ds.Fresh != 2 || ds.Replayed != 1 {
		t.Errorf("dataset stats = %+v, want dataset=g fresh=2 replayed=1", ds)
	}
	if want := 1.0 / 3.0; ds.CacheHitRatio < want-1e-9 || ds.CacheHitRatio > want+1e-9 {
		t.Errorf("cacheHitRatio = %v, want %v", ds.CacheHitRatio, want)
	}
	if want := 0.75; ds.EpsilonCommitted != want {
		t.Errorf("epsilonCommitted = %v, want %v", ds.EpsilonCommitted, want)
	}
	if ds.EpsilonPerHour <= 0 {
		t.Errorf("epsilonPerHour = %v, want > 0", ds.EpsilonPerHour)
	}
	if ds.Budget == nil || ds.Budget.Spent != 0.75 || ds.Budget.Total != 100 {
		t.Errorf("budget = %+v, want spent=0.75 total=100", ds.Budget)
	}

	// A dataset with no traffic yet still answers, with zero counters.
	if err := json.Unmarshal(doReq(t, ts, "GET", "/v1/datasets/med/stats", "", http.StatusOK), &ds); err != nil {
		t.Fatalf("idle dataset stats decode: %v", err)
	}
	if ds.Fresh != 0 || ds.Replayed != 0 || ds.EpsilonCommitted != 0 {
		t.Errorf("idle dataset stats = %+v, want zeros", ds)
	}
	// Unknown dataset: typed 404.
	doReq(t, ts, "GET", "/v1/datasets/nope/stats", "", http.StatusNotFound)
}

// TestAccessLogJSON asserts every access-log line is a well-formed JSON
// object carrying the documented fields, including dataset/ε/outcome on
// query traffic.
func TestAccessLogJSON(t *testing.T) {
	_, svc := newTestServer(t, 2)
	var buf syncBuffer
	logger, err := recmech.NewAccessLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(recmech.WithAccessLog(recmech.NewServiceHandler(svc), logger))
	defer ts.Close()

	postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5}) // spent
	postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5}) // replayed
	doReq(t, ts, "POST", "/v2/query", `{"dataset":"g","kind":"triangles","epsilon":10}`, http.StatusTooManyRequests)
	doReq(t, ts, "GET", "/healthz", "", http.StatusOK)
	doReq(t, ts, "GET", "/v1/budget/g", "", http.StatusOK)

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d access-log lines, want 5:\n%s", len(lines), buf.String())
	}
	var entries []recmech.AccessEntry
	for i, line := range lines {
		var e recmech.AccessEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if e.Time == "" || e.Method == "" || e.Path == "" || e.Status == 0 {
			t.Errorf("line %d missing required fields: %s", i, line)
		}
		if e.DurationMS < 0 {
			t.Errorf("line %d negative duration: %s", i, line)
		}
		entries = append(entries, e)
	}
	type want struct {
		path, dataset, outcome string
		status                 int
	}
	wants := []want{
		{"/v1/query", "g", "spent", 200},
		{"/v1/query", "g", "replayed", 200},
		{"/v2/query", "g", "rejected", 429},
		{"/healthz", "", "", 200},
		{"/v1/budget/g", "g", "", 200},
	}
	for i, w := range wants {
		e := entries[i]
		if e.Path != w.path || e.Dataset != w.dataset || e.Outcome != w.outcome || e.Status != w.status {
			t.Errorf("line %d = %+v, want %+v", i, e, w)
		}
	}
	if entries[0].Epsilon != 0.5 {
		t.Errorf("spent line ε = %v, want 0.5", entries[0].Epsilon)
	}
}

// TestAccessLogText covers the text format shape and the format validator.
func TestAccessLogText(t *testing.T) {
	_, svc := newTestServer(t, 5)
	var buf syncBuffer
	logger, err := recmech.NewAccessLogger(&buf, "text")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(recmech.WithAccessLog(recmech.NewServiceHandler(svc), logger))
	defer ts.Close()
	postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5})
	line := buf.String()
	for _, frag := range []string{"POST /v1/query 200", "dataset=g", "eps=0.5", "outcome=spent"} {
		if !strings.Contains(line, frag) {
			t.Errorf("text line missing %q: %s", frag, line)
		}
	}
	if _, err := recmech.NewAccessLogger(io.Discard, "xml"); err == nil {
		t.Error("format \"xml\" accepted, want error")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for collecting log output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestStoreMetricsDurable boots a durable service and asserts the store
// instruments (WAL appends, fsync latency) are exposed and move.
func TestStoreMetricsDurable(t *testing.T) {
	st, err := recmech.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc, warns := recmech.NewServiceWithStore(recmech.ServiceConfig{DatasetBudget: 5, Workers: 2}, st)
	if len(warns) != 0 {
		t.Fatalf("boot warnings: %v", warns)
	}
	ts := httptest.NewServer(recmech.NewServiceHandler(svc))
	defer ts.Close()

	doReq(t, ts, "PUT", "/v1/datasets/d", `{"kind":"graph","graph":"0 1\n1 2\n0 2\n"}`, http.StatusOK)
	doReq(t, ts, "POST", "/v2/query", `{"dataset":"d","kind":"triangles","epsilon":0.5}`, http.StatusOK)

	got := scrapeMetrics(t, ts)
	// Grant + reserve + commit + recorded release: at least 4 appends.
	if v := got["recmech_store_wal_appends_total"]; v < 4 {
		t.Errorf("wal appends = %v, want ≥ 4", v)
	}
	if got["recmech_store_wal_bytes_total"] <= 0 {
		t.Errorf("wal bytes = %v, want > 0", got["recmech_store_wal_bytes_total"])
	}
	if v := got["recmech_store_fsync_seconds_count"]; v < 4 {
		t.Errorf("fsync count = %v, want ≥ 4", v)
	}

	var stats recmech.ServiceStats
	if err := json.Unmarshal(doReq(t, ts, "GET", "/v1/stats", "", http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil || stats.Store.WALAppends < 4 || stats.Store.FsyncCount < 4 {
		t.Errorf("stats.Store = %+v, want ≥ 4 appends and fsyncs", stats.Store)
	}
}

// TestDatasetStatsResetOnRecreate: deleting a dataset drops its in-memory
// counters, so a re-created dataset under the same name starts from zero
// (the durable ε ledger, deliberately, does not reset).
func TestDatasetStatsResetOnRecreate(t *testing.T) {
	st, err := recmech.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc, _ := recmech.NewServiceWithStore(recmech.ServiceConfig{DatasetBudget: 5, Workers: 2}, st)
	ts := httptest.NewServer(recmech.NewServiceHandler(svc))
	defer ts.Close()

	doReq(t, ts, "PUT", "/v1/datasets/d", `{"kind":"graph","graph":"0 1\n1 2\n0 2\n"}`, http.StatusOK)
	doReq(t, ts, "POST", "/v2/query", `{"dataset":"d","kind":"triangles","epsilon":0.5}`, http.StatusOK)
	doReq(t, ts, "DELETE", "/v1/datasets/d", "", http.StatusNoContent)
	doReq(t, ts, "GET", "/v1/datasets/d/stats", "", http.StatusNotFound)
	// The deleted dataset's series must no longer be scraped.
	if got := scrapeMetrics(t, ts); got[`recmech_dataset_queries_total{dataset="d",outcome="fresh"}`] != 0 {
		t.Errorf("deleted dataset still emits counter series")
	}

	doReq(t, ts, "PUT", "/v1/datasets/d", `{"kind":"graph","graph":"0 1\n1 2\n"}`, http.StatusOK)
	var ds recmech.DatasetStats
	if err := json.Unmarshal(doReq(t, ts, "GET", "/v1/datasets/d/stats", "", http.StatusOK), &ds); err != nil {
		t.Fatal(err)
	}
	if ds.Fresh != 0 || ds.EpsilonCommitted != 0 {
		t.Errorf("re-created dataset inherited counters: %+v", ds)
	}
	if ds.Budget == nil || ds.Budget.Spent != 0.5 {
		t.Errorf("durable ledger should survive delete/re-create: %+v", ds.Budget)
	}
}

// TestAccessLogTextSanitizesPath: an encoded newline in the URL must not
// forge a second text log line.
func TestAccessLogTextSanitizesPath(t *testing.T) {
	_, svc := newTestServer(t, 5)
	var buf syncBuffer
	logger, err := recmech.NewAccessLogger(&buf, "text")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(recmech.WithAccessLog(recmech.NewServiceHandler(svc), logger))
	defer ts.Close()
	doReq(t, ts, "GET", "/v1/datasets/x%0Aforged%20line/stats", "", http.StatusNotFound)
	out := buf.String()
	if n := strings.Count(out, "\n"); n != 1 {
		t.Fatalf("%d log lines for one request (injection):\n%s", n, out)
	}
	if !strings.Contains(out, `"/v1/datasets/x\nforged line/stats"`) {
		t.Errorf("path not quoted: %s", out)
	}
}
