package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"recmech"
)

const socialEdges = "# nodes 8\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n5 6\n6 7\n"

func durableConfig() recmech.ServiceConfig {
	return recmech.ServiceConfig{
		DatasetBudget:  6,
		DefaultEpsilon: 0.5,
		Workers:        4,
		Seed:           7,
	}
}

// bootDurable opens (or re-opens) a store-backed service over dir behind
// an HTTP server. The returned store is intentionally NOT closed on
// cleanup — abandoning it without Close is how the tests simulate SIGKILL,
// which is safe because every journal append is synced before it applies.
func bootDurable(t *testing.T, dir string) (*httptest.Server, *recmech.Store) {
	t.Helper()
	st, err := recmech.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	svc, warns := recmech.NewServiceWithStore(durableConfig(), st)
	for _, w := range warns {
		t.Logf("boot warning: %v", w)
	}
	ts := httptest.NewServer(recmech.NewServiceHandler(svc))
	t.Cleanup(ts.Close)
	return ts, st
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getRemaining(t *testing.T, ts *httptest.Server, dataset string) float64 {
	t.Helper()
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/budget/"+dataset, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/budget/%s: %d %s", dataset, code, raw)
	}
	var st recmech.BudgetStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st.Remaining
}

// TestDurableCrashRecovery is the acceptance flow for the durable store:
// upload a dataset over the admin API, run a concurrent query workload,
// kill the daemon without any shutdown (the store is simply abandoned,
// exactly what SIGKILL leaves behind), restart on the same data dir, and
// check that (1) remaining budget never exceeds the pre-crash remaining,
// (2) previously recorded releases replay identically at zero additional
// ε, and (3) the uploaded dataset is still queryable.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ts, _ := bootDurable(t, dir) // store deliberately never closed: SIGKILL

	// Upload a graph dataset through the admin API.
	code, raw := doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/social",
		recmech.UploadRequest{Kind: "graph", Graph: socialEdges})
	if code != http.StatusOK {
		t.Fatalf("PUT /v1/datasets/social: %d %s", code, raw)
	}
	var info recmech.DatasetInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 8 || info.Edges != 8 || info.Budget == nil || info.Budget.Total != 6 {
		t.Fatalf("upload info %s", raw)
	}

	// Mid-workload: a burst of concurrent queries, some identical (they
	// coalesce), some distinct (each spends fresh ε).
	var wg sync.WaitGroup
	values := make([]recmech.ServiceResponse, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := recmech.ServiceRequest{Dataset: "social", Kind: recmech.KindTriangles, Epsilon: 0.5}
			if i%2 == 1 {
				req = recmech.ServiceRequest{Dataset: "social", Kind: recmech.KindKStars, K: 2, Epsilon: 0.5}
			}
			code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", req)
			if code != http.StatusOK {
				t.Errorf("query %d: %d %s", i, code, raw)
				return
			}
			if err := json.Unmarshal(raw, &values[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	preCrash := getRemaining(t, ts, "social")
	if preCrash > 6-1.0 { // at least triangles + kstars were fresh releases
		t.Fatalf("pre-crash remaining %g, expected ≤ 5", preCrash)
	}
	triangleValue := values[0].Value

	// SIGKILL: no Store.Close, no graceful drain. Reboot on the same dir.
	ts.Close()
	ts2, _ := bootDurable(t, dir)

	// (1) Budget can only have shrunk.
	postCrash := getRemaining(t, ts2, "social")
	if postCrash > preCrash {
		t.Errorf("remaining grew across the crash: %g → %g", preCrash, postCrash)
	}

	// (2) The recorded triangle release replays identically, at zero ε.
	code, raw = doJSON(t, http.MethodPost, ts2.URL+"/v1/query",
		recmech.ServiceRequest{Dataset: "social", Kind: recmech.KindTriangles, Epsilon: 0.5})
	if code != http.StatusOK {
		t.Fatalf("replay query: %d %s", code, raw)
	}
	var replay recmech.ServiceResponse
	if err := json.Unmarshal(raw, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Cached {
		t.Error("post-restart repeat of a recorded release was not served from the journal")
	}
	if replay.Value != triangleValue {
		t.Errorf("replayed value %v differs from recorded release %v", replay.Value, triangleValue)
	}
	if got := getRemaining(t, ts2, "social"); got != postCrash {
		t.Errorf("replaying a recorded release spent ε: %g → %g", postCrash, got)
	}

	// (3) The uploaded dataset is fully queryable: a *fresh* query (never
	// recorded) runs the mechanism and spends fresh ε.
	code, raw = doJSON(t, http.MethodPost, ts2.URL+"/v1/query",
		recmech.ServiceRequest{Dataset: "social", Kind: recmech.KindKTriangles, K: 2, Epsilon: 0.5})
	if code != http.StatusOK {
		t.Fatalf("fresh post-restart query: %d %s", code, raw)
	}
	var fresh recmech.ServiceResponse
	if err := json.Unmarshal(raw, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Error("fresh query claimed to be cached")
	}
	if got := getRemaining(t, ts2, "social"); got != postCrash-0.5 {
		t.Errorf("fresh query after restart: remaining %g, want %g", got, postCrash-0.5)
	}
}

// TestDurableDeleteKeepsSpentBudget deletes and re-creates across a
// restart: the version keeps climbing and the ε ledger survives both the
// restart and the delete/re-create cycle (deleting a dataset must not be
// a budget-reset loophole).
func TestDurableDeleteKeepsSpentBudget(t *testing.T) {
	dir := t.TempDir()
	ts, _ := bootDurable(t, dir)

	code, raw := doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/g",
		recmech.UploadRequest{Kind: "graph", Graph: "0 1\n1 2\n0 2\n"})
	if code != http.StatusOK {
		t.Fatalf("PUT: %d %s", code, raw)
	}
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/query",
		recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 2})
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	spent := 6 - getRemaining(t, ts, "g")
	if spent != 2 {
		t.Fatalf("spent %g, want 2", spent)
	}

	if code, raw = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/g", nil); code != http.StatusNoContent {
		t.Fatalf("DELETE: %d %s", code, raw)
	}
	if code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/query",
		recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5}); code != http.StatusNotFound {
		t.Fatalf("query after delete: %d, want 404", code)
	}

	// SIGKILL and reboot: the tombstone holds, and re-uploading the same
	// name still carries the spent ε.
	ts.Close()
	ts2, _ := bootDurable(t, dir)
	if code, _ = doJSON(t, http.MethodPost, ts2.URL+"/v1/query",
		recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5}); code != http.StatusNotFound {
		t.Fatalf("query after delete+restart: %d, want 404", code)
	}
	code, raw = doJSON(t, http.MethodPut, ts2.URL+"/v1/datasets/g",
		recmech.UploadRequest{Kind: "graph", Graph: "0 1\n1 2\n0 2\n"})
	if code != http.StatusOK {
		t.Fatalf("re-upload: %d %s", code, raw)
	}
	if got := getRemaining(t, ts2, "g"); got != 4 {
		t.Errorf("remaining after delete/re-create cycle %g, want 4 (spent ε must survive)", got)
	}
}

// TestFlagDatasetUploadNoStaleReplay: a flag-loaded (in-memory) dataset
// and a later upload of the same name must never share release-cache keys
// — the in-memory generation counter and the store's version counter both
// start at 1, so without disjoint key namespaces the upload would replay
// the old data's cached release.
func TestFlagDatasetUploadNoStaleReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := recmech.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := recmech.NewServiceWithStore(durableConfig(), st)
	g := recmech.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	if err := svc.AddGraph("x", g); err != nil { // flag-style, in-memory
		t.Fatal(err)
	}
	ts := httptest.NewServer(recmech.NewServiceHandler(svc))
	t.Cleanup(ts.Close)

	q := recmech.ServiceRequest{Dataset: "x", Kind: recmech.KindTriangles, Epsilon: 0.5}
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", q)
	if code != http.StatusOK {
		t.Fatalf("query flag dataset: %d %s", code, raw)
	}

	// Replace it via the admin API (store version 1 — numerically equal to
	// the in-memory generation) with different data.
	code, raw = doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/x",
		recmech.UploadRequest{Kind: "graph", Graph: "# nodes 9\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n6 7\n7 8\n8 6\n"})
	if code != http.StatusOK {
		t.Fatalf("PUT over flag dataset: %d %s", code, raw)
	}

	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/query", q)
	if code != http.StatusOK {
		t.Fatalf("query after replacement: %d %s", code, raw)
	}
	var resp recmech.ServiceResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("query after upload replayed the flag-loaded dataset's stale release")
	}
}

// TestAdminAPIInMemory exercises the admin endpoints without a store:
// upload, budget in the listing, delete, and the path-safety gate.
func TestAdminAPIInMemory(t *testing.T) {
	ts, _ := newTestServer(t, 3)

	// Upload a relational dataset at runtime.
	code, raw := doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/runtime",
		recmech.UploadRequest{Kind: "relational", Tables: map[string]string{
			"visits": "x y\na b @ pa & pb\nb c @ pb & pc\n",
		}})
	if code != http.StatusOK {
		t.Fatalf("PUT relational: %d %s", code, raw)
	}

	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/query",
		recmech.ServiceRequest{Dataset: "runtime", Kind: recmech.KindSQL,
			Query: "SELECT * FROM visits", Epsilon: 0.5})
	if code != http.StatusOK {
		t.Fatalf("query uploaded relational dataset: %d %s", code, raw)
	}

	// The listing carries each dataset's ledger.
	code, raw = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/datasets: %d", code)
	}
	var listing struct {
		Datasets []recmech.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Datasets) != 3 {
		t.Fatalf("listing %s", raw)
	}
	for _, d := range listing.Datasets {
		if d.Budget == nil {
			t.Errorf("dataset %q listed without budget", d.Name)
			continue
		}
		if d.Name == "runtime" && d.Budget.Remaining != 2.5 {
			t.Errorf("runtime remaining %g, want 2.5", d.Budget.Remaining)
		}
	}

	// Delete, then the dataset is gone (404 both ways).
	if code, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/runtime", nil); code != http.StatusNoContent {
		t.Fatalf("DELETE: %d", code)
	}
	if code, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/runtime", nil); code != http.StatusNotFound {
		t.Fatalf("double DELETE: %d, want 404", code)
	}

	// Path-unsafe names and bad kinds are rejected before anything runs.
	// (".." never even reaches the handler — the mux path-cleans it away.)
	for _, bad := range []string{"a%2Fb", ".hidden", "name%20space"} {
		code, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/"+bad,
			recmech.UploadRequest{Kind: "graph", Graph: "0 1\n"})
		if code != http.StatusBadRequest {
			t.Errorf("PUT %q: %d, want 400", bad, code)
		}
	}
	// Names are case-insensitive like everywhere else in the service: an
	// uppercase PUT lands on the lowercase dataset.
	code, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/MiXeD",
		recmech.UploadRequest{Kind: "graph", Graph: "0 1\n1 2\n0 2\n"})
	if code != http.StatusOK {
		t.Errorf("PUT MiXeD: %d, want 200", code)
	}
	if code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/query",
		recmech.ServiceRequest{Dataset: "mixed", Kind: recmech.KindTriangles, Epsilon: 0.5}); code != http.StatusOK {
		t.Errorf("query lowercased upload: %d, want 200", code)
	}
	code, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/ok",
		recmech.UploadRequest{Kind: "spreadsheet"})
	if code != http.StatusBadRequest {
		t.Errorf("bad kind: %d, want 400", code)
	}
	code, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/ok",
		recmech.UploadRequest{Kind: "graph", Graph: "zz yy\n"})
	if code != http.StatusBadRequest {
		t.Errorf("bad edge list: %d, want 400", code)
	}
}

// TestNodeCountBoundRejected sends uploads and appends whose declared or
// implied node count is past graph.MaxNodes: each is a 400 bad_request,
// in memory and durable alike, and the dataset is left as it was.
func TestNodeCountBoundRejected(t *testing.T) {
	const huge = "70368744177664" // 1<<46
	inMem, _ := newTestServer(t, 3)
	durable, _ := bootDurable(t, t.TempDir())
	if code, raw := doJSON(t, http.MethodPut, durable.URL+"/v1/datasets/g",
		recmech.UploadRequest{Kind: "graph", Graph: socialEdges}); code != http.StatusOK {
		t.Fatalf("PUT g: %d %s", code, raw)
	}
	for name, ts := range map[string]*httptest.Server{"in-memory": inMem, "durable": durable} {
		for _, text := range []string{"# nodes " + huge + "\n", "0 " + huge + "\n"} {
			reqs := []struct {
				method, path string
				body         any
			}{
				{http.MethodPut, "/v1/datasets/huge", recmech.UploadRequest{Kind: "graph", Graph: text}},
				{http.MethodPatch, "/v1/datasets/g", recmech.AppendRequest{Edges: text}},
			}
			for _, r := range reqs {
				code, raw := doJSON(t, r.method, ts.URL+r.path, r.body)
				var body map[string]any
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Fatalf("%s %s %s %q: %d %s", name, r.method, r.path, text, code, raw)
				}
				if code != http.StatusBadRequest || errCode(t, body) != "bad_request" {
					t.Errorf("%s %s %s %q: %d %s, want 400 bad_request", name, r.method, r.path, text, code, raw)
				}
			}
		}
		code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil)
		var listing struct {
			Datasets []recmech.DatasetInfo `json:"datasets"`
		}
		if code != http.StatusOK || json.Unmarshal(raw, &listing) != nil {
			t.Fatalf("%s GET /v1/datasets: %d %s", name, code, raw)
		}
		for _, d := range listing.Datasets {
			if d.Name == "huge" {
				t.Errorf("%s: rejected upload registered %+v", name, d)
			}
			if d.Name == "g" && (d.Nodes != 8 || d.Edges != 8) {
				t.Errorf("%s: rejected append changed g to %d nodes %d edges, want 8 and 8", name, d.Nodes, d.Edges)
			}
		}
	}
}
