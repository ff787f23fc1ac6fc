package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"recmech"
)

// sampledTriangles asks for the sampled tier on newEstimatorServer's graph
// dataset ("g", 8 edges): only the request selects it, at any graph size.
var sampledTriangles = recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles,
	Mode: recmech.ModeSampled, Samples: 2000}

// newEstimatorServer builds a server with the accuracy surfaces exposed and
// the access log captured.
func newEstimatorServer(t testing.TB) (*httptest.Server, *recmech.Service, *bytes.Buffer) {
	t.Helper()
	svc := recmech.NewService(recmech.ServiceConfig{
		DatasetBudget:  10,
		DefaultEpsilon: 0.5,
		Workers:        4,
		Seed:           7,
		ExposeAccuracy: true,
	})
	g := recmech.NewGraph(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {5, 6}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	if err := svc.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	l, err := recmech.NewAccessLogger(&logBuf, "text")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(recmech.WithAccessLog(recmech.NewServiceHandler(svc), l))
	t.Cleanup(ts.Close)
	return ts, svc, &logBuf
}

// TestInvalidModeHTTP pins the typed 400: every bad mode/samples combination
// answers with code "invalid_mode", not the generic bad_request. "auto" is
// no tier, and samples without mode "sampled" selects none.
func TestInvalidModeHTTP(t *testing.T) {
	ts, _ := newTestServer(t, 2.0)
	cases := []map[string]any{
		{"dataset": "g", "kind": "triangles", "mode": "approximate"},
		{"dataset": "g", "kind": "triangles", "mode": "auto"},
		{"dataset": "g", "kind": "triangles", "samples": 100},
		{"dataset": "med", "kind": "sql", "query": "SELECT x FROM visits", "mode": "sampled"},
		{"dataset": "g", "kind": "triangles", "samples": -1},
		{"dataset": "g", "kind": "triangles", "mode": "exact", "samples": 100},
		{"dataset": "g", "kind": "triangles", "mode": "sampled", "samples": 100_000_000},
	}
	for i, req := range cases {
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/query", req)
		if code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400 (%s)", i, code, raw)
		}
		if got := httpErrCode(t, raw); got != "invalid_mode" {
			t.Errorf("case %d: error code %q, want invalid_mode", i, got)
		}
	}
	// The same validation guards /v2/advise and /v2/prepare.
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/prepare", map[string]any{
		"dataset": "g", "kind": "triangles", "mode": "bogus",
	})
	if code != http.StatusBadRequest || httpErrCode(t, raw) != "invalid_mode" {
		t.Errorf("prepare with a bogus mode: status %d code %q, want 400 invalid_mode", code, httpErrCode(t, raw))
	}
}

// TestSampledQueryEndToEnd drives one sampled query through every surface the
// estimator tier touches: the response mode, replay at zero ε, the prepare
// estimate block, /v1/stats, and the access log.
func TestSampledQueryEndToEnd(t *testing.T) {
	ts, svc, logBuf := newEstimatorServer(t)

	// Prepare first: the plan is sampled and (on this opted-in server) the
	// estimator contract is reported — never the estimate value.
	var prep recmech.PrepareInfo
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/prepare", sampledTriangles)
	if code != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Mode != recmech.ModeSampled {
		t.Fatalf("prepare mode %q, want sampled", prep.Mode)
	}
	if prep.Estimate == nil {
		t.Fatal("prepare on an exposing server carries no estimate block")
	}
	if prep.Estimate.Method == "" || prep.Estimate.Samples <= 0 || prep.Estimate.Confidence <= 0 {
		t.Errorf("estimate block incomplete: %+v", prep.Estimate)
	}
	if prep.Compile == nil || prep.Compile.Mode != recmech.ModeSampled {
		t.Errorf("compile profile %+v, want mode sampled", prep.Compile)
	}

	// Query: a fresh sampled release, then a zero-ε replay of it.
	code, resp, _ := postQuery(t, ts, sampledTriangles)
	if code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if resp.Mode != recmech.ModeSampled {
		t.Fatalf("response mode %q, want sampled", resp.Mode)
	}
	if resp.Cached {
		t.Fatal("first sampled query reported cached")
	}
	code, resp2, _ := postQuery(t, ts, sampledTriangles)
	if code != http.StatusOK || !resp2.Cached {
		t.Fatalf("repeat: status %d cached %v, want a replay", code, resp2.Cached)
	}
	if resp2.Value != resp.Value || resp2.Mode != recmech.ModeSampled {
		t.Errorf("replay = %g/%q, want the recorded %g/%q", resp2.Value, resp2.Mode, resp.Value, resp.Mode)
	}

	// An explicit exact query of the same workload is a different release.
	code, respExact, _ := postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Mode: recmech.ModeExact})
	if code != http.StatusOK {
		t.Fatalf("exact query: status %d", code)
	}
	if respExact.Cached {
		t.Fatal("exact query replayed the sampled release — cache keys must separate modes")
	}
	if respExact.Mode != "" {
		t.Errorf("exact response mode %q, want empty (replay-payload compatibility)", respExact.Mode)
	}
	// No mode is exact: it replays the exact release, never the sampled one.
	code, respDefault, _ := postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles})
	if code != http.StatusOK || !respDefault.Cached || respDefault.Value != respExact.Value || respDefault.Mode != "" {
		t.Errorf("query without a mode: status %d, %+v; want a replay of the exact release %g", code, respDefault, respExact.Value)
	}

	// /v1/stats: the estimator section counts both tiers.
	st := svc.Stats()
	if st.Estimator == nil {
		t.Fatal("stats carry no estimator section after sampled releases")
	}
	if st.Estimator.SampledReleases != 1 || st.Estimator.ExactReleases != 1 {
		t.Errorf("estimator stats %+v, want 1 sampled and 1 exact release", st.Estimator)
	}
	if st.Estimator.MeanContractRelError <= 0 {
		t.Errorf("mean contract rel error %g, want positive", st.Estimator.MeanContractRelError)
	}

	// The access log attributes each answer to its tier.
	log := logBuf.String()
	if !strings.Contains(log, "mode=sampled") {
		t.Errorf("access log carries no mode=sampled line:\n%s", log)
	}
	if !strings.Contains(log, "mode=exact") {
		t.Errorf("access log carries no mode=exact line:\n%s", log)
	}
}

// TestSampledAdvise: the composed bound surfaces the sampler term and the
// estimator contract through /v2/advise.
func TestSampledAdvise(t *testing.T) {
	ts, _, _ := newEstimatorServer(t)
	req := sampledTriangles
	req.Epsilon = 0.5
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/advise", req)
	if code != http.StatusOK {
		t.Fatalf("advise: status %d: %s", code, raw)
	}
	var info recmech.AdviseInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Mode != recmech.ModeSampled {
		t.Fatalf("advise mode %q, want sampled", info.Mode)
	}
	if info.Estimate == nil {
		t.Fatal("advise on a sampled plan carries no estimate contract")
	}
	if info.AtEpsilon == nil {
		t.Fatal("advise carries no atEpsilon profile")
	}
	if info.AtEpsilon.SamplerTerm <= 0 {
		t.Errorf("samplerTerm = %g, want positive for a sampled plan", info.AtEpsilon.SamplerTerm)
	}
	if got, want := info.AtEpsilon.Error, info.AtEpsilon.NoiseTerm+info.AtEpsilon.SamplerTerm; got != want {
		t.Errorf("error %g ≠ noiseTerm+samplerTerm %g", got, want)
	}
}

// TestSampledReplayDeterministic: two identically seeded services produce
// bit-identical sampled releases — the whole pipeline (estimator stream and
// noise stream) is a function of workload and seed.
func TestSampledReplayDeterministic(t *testing.T) {
	value := func() float64 {
		ts, _, _ := newEstimatorServer(t)
		req := sampledTriangles
		req.Epsilon = 0.25
		code, resp, _ := postQuery(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("query: status %d", code)
		}
		return resp.Value
	}
	if v1, v2 := value(), value(); v1 != v2 {
		t.Fatalf("same-seed services released %g and %g, want bit-identical", v1, v2)
	}
}

// TestSampledMillionNodeEndToEnd is the acceptance run: a triangle query on
// a synthetic million-node graph completes end to end in sampled mode, with
// the tier and contract visible in the access log and /v1/stats. The same
// workload in exact mode would enumerate for hours; the estimator answers in
// well under a second.
func TestSampledMillionNodeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node fixture generation is seconds of work; skipped under -short")
	}
	svc := recmech.NewService(recmech.ServiceConfig{
		DatasetBudget:  10,
		DefaultEpsilon: 0.5,
		Workers:        2,
		Seed:           7,
		ExposeAccuracy: true,
	})
	g := recmech.RandomClusteredGraph(recmech.NewRand(1), 1_000_000, 2_000_000, 0.3)
	if err := svc.AddGraph("big", g); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	l, err := recmech.NewAccessLogger(&logBuf, "json")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(recmech.WithAccessLog(recmech.NewServiceHandler(svc), l))
	defer ts.Close()

	code, resp, _ := postQuery(t, ts, recmech.ServiceRequest{Dataset: "big", Kind: recmech.KindTriangles, Mode: recmech.ModeSampled})
	if code != http.StatusOK {
		t.Fatalf("million-node query: status %d", code)
	}
	if resp.Mode != recmech.ModeSampled {
		t.Fatalf("sampled query on a 2M-edge graph answered in mode %q", resp.Mode)
	}

	st := svc.Stats()
	if st.Estimator == nil || st.Estimator.SampledReleases != 1 {
		t.Fatalf("estimator stats %+v, want one sampled release", st.Estimator)
	}

	var entry recmech.AccessEntry
	if err := json.Unmarshal(logBuf.Bytes(), &entry); err != nil {
		t.Fatalf("access log %q: %v", logBuf.String(), err)
	}
	if entry.Mode != recmech.ModeSampled || entry.Dataset != "big" || entry.Outcome != "spent" {
		t.Errorf("access entry %+v, want mode=sampled dataset=big outcome=spent", entry)
	}
}
