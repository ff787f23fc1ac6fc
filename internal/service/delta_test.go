package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/noise"
	"recmech/internal/plan"
	"recmech/internal/store"
)

// edgeText renders edges in ReadEdgeList format (no header: the node
// universe is the dataset's unless the append grows it explicitly).
func edgeText(edges ...[2]int) string {
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "%d %d\n", e[0], e[1])
	}
	return b.String()
}

// freshEdges returns n single-edge append payloads over pairs g lacks.
func freshEdges(g *graph.Graph, n int) []string {
	var out []string
	for u := 0; u < g.NumNodes() && len(out) < n; u++ {
		for v := u + 1; v < g.NumNodes() && len(out) < n; v++ {
			if !g.HasEdge(u, v) {
				out = append(out, fmt.Sprintf("%d %d\n", u, v))
			}
		}
	}
	if len(out) < n {
		panic("fixture graph too dense for freshEdges")
	}
	return out
}

func graphText(g *graph.Graph) string {
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}

// TestAppendBitIdentity is the service-layer golden contract: a dataset
// built by upload+append answers every workload bit-identically to one
// uploaded whole at the final state, because the re-warm pass's
// plan.Advance is certified bit-identical to a cold compile and the noise
// streams depend only on (seed, worker, draw order).
func TestAppendBitIdentity(t *testing.T) {
	base := graph.RandomAverageDegree(noise.NewRand(11), 24, 4)
	delta := [][2]int{{0, 23}, {5, 17}, {9, 21}}
	full := base.Clone()
	for _, e := range delta {
		full.AddEdge(e[0], e[1])
	}
	requests := []Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.3},
		{Dataset: "g", Kind: KindTriangles, Privacy: "edge", Epsilon: 0.5},
	}
	ctx := context.Background()
	cfg := Config{DatasetBudget: 100, Workers: 1, Seed: 5}

	// Service A: upload the base, prepare plans (zero noise draws), append
	// the delta, let the re-warm advance the plans, then query.
	a := New(cfg)
	if err := a.AddGraph("g", base); err != nil {
		t.Fatal(err)
	}
	for _, req := range requests {
		if _, err := a.Prepare(ctx, req); err != nil {
			t.Fatalf("prepare: %v", err)
		}
	}
	before := plan.ReadDeltaCounters()
	if _, err := a.AppendDataset("g", AppendRequest{Edges: edgeText(delta...)}); err != nil {
		t.Fatalf("append: %v", err)
	}
	a.rewarmWG.Wait()
	after := plan.ReadDeltaCounters()
	if got := after.Advances - before.Advances; got != uint64(len(requests)) {
		t.Fatalf("re-warm advanced %d plans, want %d", got, len(requests))
	}
	var gotA []float64
	for _, req := range requests {
		resp, err := a.Query(ctx, req)
		if err != nil {
			t.Fatalf("query after append: %v", err)
		}
		gotA = append(gotA, resp.Value)
	}

	// Service B: the final graph uploaded whole, same seed, same workload
	// sequence — the cold-compile reference.
	b := New(cfg)
	if err := b.AddGraph("g", full); err != nil {
		t.Fatal(err)
	}
	for _, req := range requests {
		if _, err := b.Prepare(ctx, req); err != nil {
			t.Fatalf("prepare: %v", err)
		}
	}
	for i, req := range requests {
		resp, err := b.Query(ctx, req)
		if err != nil {
			t.Fatalf("reference query: %v", err)
		}
		if math.Float64bits(resp.Value) != math.Float64bits(gotA[i]) {
			t.Fatalf("request %d: delta-compiled release %v != cold release %v", i, gotA[i], resp.Value)
		}
	}
}

// TestAppendRewarmPublishesNewGeneration pins the lineage mechanics: after
// an append, the predecessor generation's cached plan has been advanced and
// published under the new generation's key, so the next query is a plan hit
// (no fresh compile), and the old generation's entries are gone.
func TestAppendRewarmPublishesNewGeneration(t *testing.T) {
	s := New(Config{DatasetBudget: 100, Workers: 1, Seed: 3})
	g := graph.RandomAverageDegree(noise.NewRand(7), 20, 4)
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4}
	if _, err := s.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	if len(s.plans.Keys()) != 1 || len(s.cache.Keys()) != 1 {
		t.Fatalf("precondition: plans=%v releases=%v", s.plans.Keys(), s.cache.Keys())
	}
	oldPlanKey := s.plans.Keys()[0]

	if _, err := s.AppendDataset("g", AppendRequest{Edges: "1 18\n"}); err != nil {
		t.Fatal(err)
	}
	s.rewarmWG.Wait()
	if s.plans.Has(oldPlanKey) {
		t.Fatalf("old-generation plan key %q survived the append", oldPlanKey)
	}
	if len(s.cache.Keys()) != 0 {
		t.Fatalf("old-generation release entries survived: %v", s.cache.Keys())
	}
	keys := s.plans.Keys()
	if len(keys) != 1 || !strings.HasPrefix(keys[0], "g#2|") {
		t.Fatalf("re-warmed plan keys %v, want exactly one under g#2|", keys)
	}
	resp, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("post-append query replayed a stale release")
	}
	if st := s.Stats(); st.DeltaCompiles == nil || st.DeltaCompiles.Appends == 0 {
		t.Fatalf("stats missing deltaCompiles section: %+v", st.DeltaCompiles)
	}
}

// TestPostAppendQueriesJoinRewarm pins the re-warm contract: the append
// registers each advance under the new generation's plan key before it
// answers, so a battery asked the moment the append returns joins those
// advances and compiles nothing. One P makes the query reach the plan
// cache before any background goroutine runs — the interleaving where an
// advance started only after the append returned loses the race.
func TestPostAppendQueriesJoinRewarm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(Config{DatasetBudget: 1000, Workers: 1, Seed: 1})
	defer s.rewarmWG.Wait()
	g := graph.RandomAverageDegree(noise.NewRand(3), 14, 4)
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	battery := []Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5},
		{Dataset: "g", Kind: KindTriangles, Privacy: "edge", Epsilon: 0.5},
		{Dataset: "g", Kind: KindKTriangles, K: 2, Epsilon: 0.5},
	}
	for _, req := range battery {
		if _, err := s.Prepare(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i, edge := range freshEdges(g, 10) {
		compiles, advances := s.Stats().Compiles.Count, plan.ReadDeltaCounters().Advances
		if _, err := s.AppendDataset("g", AppendRequest{Edges: edge}); err != nil {
			t.Fatal(err)
		}
		for _, req := range battery {
			if _, err := s.Query(ctx, req); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if got := s.Stats().Compiles.Count - compiles; got != 0 {
			t.Fatalf("append %d: the battery compiled %d plan(s) from scratch, want 0", i, got)
		}
		if got := plan.ReadDeltaCounters().Advances - advances; got != uint64(len(battery)) {
			t.Fatalf("append %d: %d plan(s) advanced, want %d", i, got, len(battery))
		}
	}
}

// TestLadderSolvingReleasesTraced pins the trace policy on the path where
// a completed plan still solves LPs: a plan Plan.Advance built for a
// changed generation holds no solved rungs, so its first release walks the
// whole ladder and must be traced like a compile. Any query whose plan
// solved LPs records exactly one trace.
func TestLadderSolvingReleasesTraced(t *testing.T) {
	s := New(Config{DatasetBudget: 1000, Workers: 1, Seed: 1})
	defer s.rewarmWG.Wait()
	g := graph.RandomAverageDegree(noise.NewRand(3), 14, 4)
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	battery := []Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5},
		{Dataset: "g", Kind: KindTriangles, Privacy: "edge", Epsilon: 0.5},
		{Dataset: "g", Kind: KindKTriangles, K: 2, Epsilon: 0.5},
	}
	solves := func(pk string) uint64 {
		pl, ok := s.plans.Peek(pk)
		if !ok {
			return 0
		}
		h, g := pl.Solves()
		return h + g
	}
	ask := func() {
		t.Helper()
		for _, req := range battery {
			r := req
			if err := r.normalize(s.cfg); err != nil {
				t.Fatal(err)
			}
			ds, err := s.reg.Get(r.Dataset)
			if err != nil {
				t.Fatal(err)
			}
			pk, err := r.ensurePlanKey(ds)
			if err != nil {
				t.Fatal(err)
			}
			before, traces := solves(pk), s.tr.TracerStats().Finished
			if _, err := s.Query(ctx, req); err != nil {
				t.Fatalf("%s: %v", pk, err)
			}
			solved, traced := solves(pk)-before, s.tr.TracerStats().Finished-traces
			if solved > 0 && traced != 1 {
				t.Fatalf("%s: release solved %d LPs and recorded %d traces", pk, solved, traced)
			}
		}
	}
	ask()
	for _, edge := range freshEdges(g, 3) {
		if _, err := s.AppendDataset("g", AppendRequest{Edges: edge}); err != nil {
			t.Fatal(err)
		}
		s.rewarmWG.Wait()
		ask()
	}
}

// TestReuploadAndDeletePurgeStaleEntries pins satellite 1: re-registering a
// dataset purges the cached releases and plans of its unreachable
// generations eagerly, and deleting it purges every generation — while a
// neighbor dataset whose name shares a prefix is untouched.
func TestReuploadAndDeletePurgeStaleEntries(t *testing.T) {
	s := New(Config{DatasetBudget: 100, Workers: 1, Seed: 3})
	g := graph.RandomAverageDegree(noise.NewRand(7), 16, 3)
	up := graphText(g)
	if _, err := s.UploadGraph("g", []byte(up)); err != nil {
		t.Fatal(err)
	}
	// "g2" shares the prefix "g": the purge predicate must not catch it.
	if _, err := s.UploadGraph("g2", []byte(up)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, ds := range []string{"g", "g2"} {
		if _, err := s.Query(ctx, Request{Dataset: ds, Kind: KindTriangles, Epsilon: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	countFor := func(keys []string, prefix string) int {
		n := 0
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				n++
			}
		}
		return n
	}
	if countFor(s.cache.Keys(), "g#") != 1 || countFor(s.cache.Keys(), "g2#") != 1 {
		t.Fatalf("precondition: release keys %v", s.cache.Keys())
	}

	// Re-upload g: its gen-1 entries must go, g2's must stay.
	if _, err := s.UploadGraph("g", []byte(up)); err != nil {
		t.Fatal(err)
	}
	if n := countFor(s.cache.Keys(), "g#1|"); n != 0 {
		t.Fatalf("re-upload left %d stale release entries: %v", n, s.cache.Keys())
	}
	if countFor(s.cache.Keys(), "g2#") != 1 || countFor(s.plans.Keys(), "g2#") != 1 {
		t.Fatalf("purge leaked into prefix-sharing dataset g2: releases=%v plans=%v",
			s.cache.Keys(), s.plans.Keys())
	}

	// Delete g: every remaining g entry must go.
	if _, err := s.Query(ctx, Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDataset("g"); err != nil {
		t.Fatal(err)
	}
	if n := countFor(s.cache.Keys(), "g#") + countFor(s.plans.Keys(), "g#"); n != 0 {
		t.Fatalf("delete left %d cached entries: releases=%v plans=%v",
			n, s.cache.Keys(), s.plans.Keys())
	}
	if countFor(s.cache.Keys(), "g2#") != 1 {
		t.Fatalf("delete of g purged g2's entries: %v", s.cache.Keys())
	}
}

// TestAppendDurableRecovery checks the WAL leg of the tentpole: journalled
// deltas replay at boot, the dataset comes back at its last micro-generation
// with the appended edges, and releases recorded against that generation
// replay at zero ε.
func TestAppendDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DatasetBudget: 100, Workers: 1, Seed: 5}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, warns := NewWithStore(cfg, st)
	if len(warns) != 0 {
		t.Fatalf("boot warnings: %v", warns)
	}
	g := graph.RandomAverageDegree(noise.NewRand(13), 20, 4)
	if _, err := s.UploadGraph("g", []byte(graphText(g))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDataset("g", AppendRequest{Edges: "0 19\n2 17\n"}); err != nil {
		t.Fatal(err)
	}
	s.rewarmWG.Wait()
	ctx := context.Background()
	req := Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4}
	resp, err := s.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Gen != 2 || !ds.Durable {
		t.Fatalf("after append: gen %d durable %v, want gen 2 durable", ds.Gen, ds.Durable)
	}
	wantEdges := ds.Graph.Edges()
	if want := len(g.Edges()) + 2; len(wantEdges) != want {
		t.Fatalf("after append: %d edges, want %d", len(wantEdges), want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, warns := NewWithStore(cfg, st2)
	if len(warns) != 0 {
		t.Fatalf("reboot warnings: %v", warns)
	}
	ds2, err := s2.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Gen != 2 || ds2.Graph.NumNodes() != g.NumNodes() || !slices.Equal(ds2.Graph.Edges(), wantEdges) {
		t.Fatalf("recovered gen %d with %d nodes and edges %v, want gen 2 with %d nodes and edges %v",
			ds2.Gen, ds2.Graph.NumNodes(), ds2.Graph.Edges(), g.NumNodes(), wantEdges)
	}
	resp2, err := s2.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("release recorded against the appended generation did not replay")
	}
	if math.Float64bits(resp2.Value) != math.Float64bits(resp.Value) {
		t.Fatalf("replayed %v != recorded %v", resp2.Value, resp.Value)
	}
}

// TestAppendKeepWindowMaterializes checks the delta journal's compaction
// valve: once deltaKeepWindow deltas accumulate, an append folds the chain
// into a full re-materialization at the current generation and drops the
// journalled deltas — and recovery from the materialized state is identical.
func TestAppendKeepWindowMaterializes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DatasetBudget: 100, Workers: 1, Seed: 5}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewWithStore(cfg, st)
	g := graph.RandomAverageDegree(noise.NewRand(13), 16, 2)
	if _, err := s.UploadGraph("g", []byte(graphText(g))); err != nil {
		t.Fatal(err)
	}
	adds := freshEdges(g, deltaKeepWindow+1)
	for _, a := range adds {
		if _, err := s.AppendDataset("g", AppendRequest{Edges: a}); err != nil {
			t.Fatal(err)
		}
	}
	s.rewarmWG.Wait()
	// Appends 1 through deltaKeepWindow journal; the last of them hits the
	// window and materializes (dropping the chain), and the append after it
	// starts a fresh chain of one.
	if ds := st.DeltasFor("g"); len(ds) != 1 {
		t.Fatalf("delta chain after keep-window fold: %d entries, want 1", len(ds))
	}
	df, err := st.Datasets().Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if df.Version != deltaKeepWindow+1 {
		t.Fatalf("materialized version %d, want %d (the fold generation)", df.Version, deltaKeepWindow+1)
	}
	// The expected generations, built independently of the service: the
	// fold stored the base plus deltaKeepWindow appends, and recovery must
	// come back one generation later, with the last append.
	want := g.Clone()
	for i, a := range adds {
		var u, v int
		if _, err := fmt.Sscanf(a, "%d %d", &u, &v); err != nil {
			t.Fatal(err)
		}
		want.AddEdge(u, v)
		if i == deltaKeepWindow-1 && !slices.Equal(df.Graph.Edges(), want.Edges()) {
			t.Fatalf("materialized edges %v, want %v", df.Graph.Edges(), want.Edges())
		}
	}
	live, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(live.Graph.Edges(), want.Edges()) {
		t.Fatalf("live edges %v, want %v", live.Graph.Edges(), want.Edges())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, warns := NewWithStore(cfg, st2)
	if len(warns) != 0 {
		t.Fatalf("reboot warnings: %v", warns)
	}
	ds2, err := s2.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Gen != deltaKeepWindow+2 || ds2.Graph.NumNodes() != want.NumNodes() || !slices.Equal(ds2.Graph.Edges(), want.Edges()) {
		t.Fatalf("recovered gen %d with %d nodes and edges %v, want gen %d with %d nodes and edges %v",
			ds2.Gen, ds2.Graph.NumNodes(), ds2.Graph.Edges(), deltaKeepWindow+2, want.NumNodes(), want.Edges())
	}
}

// TestAppendKeepsPredecessorSnapshot pins the snapshot contract at the
// service layer: an append shares neighbour sets with the generation it
// extends, yet every earlier *Dataset — which in-flight queries may still
// hold — keeps its graph's edge list, node count and edge count.
func TestAppendKeepsPredecessorSnapshot(t *testing.T) {
	s := New(Config{DatasetBudget: 100, Workers: 1, Seed: 5})
	g := graph.RandomAverageDegree(noise.NewRand(17), 16, 3)
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	type snap struct {
		ds    *Dataset
		nodes int
		edges []graph.Edge
	}
	var snaps []snap
	take := func() {
		ds, err := s.reg.Get("g")
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap{ds, ds.Graph.NumNodes(), ds.Graph.Edges()})
	}
	take()
	// Every append touches node 0 (freshEdges scans from node 0), so each
	// generation copies a set the previous one shares onward; the last
	// also grows the node universe.
	for _, delta := range []string{strings.Join(freshEdges(g, 2), ""), "# nodes 18\n0 17\n3 16\n"} {
		if _, err := s.AppendDataset("g", AppendRequest{Edges: delta}); err != nil {
			t.Fatal(err)
		}
		take()
	}
	for i, sn := range snaps {
		if got := sn.ds.Graph; got.NumNodes() != sn.nodes || got.NumEdges() != len(sn.edges) || !slices.Equal(got.Edges(), sn.edges) {
			t.Errorf("generation %d changed after later appends: %d nodes %d edges, want %d and %d",
				sn.ds.Gen, got.NumNodes(), got.NumEdges(), sn.nodes, len(sn.edges))
		}
		if i > 0 && len(sn.edges) <= len(snaps[i-1].edges) {
			t.Errorf("generation %d did not grow: %d edges after %d", sn.ds.Gen, len(sn.edges), len(snaps[i-1].edges))
		}
	}
	if n := snaps[len(snaps)-1].nodes; n != 18 {
		t.Errorf("grown generation has %d nodes, want 18", n)
	}
}

// TestDeleteRecreateNeverReissuesDeltaGenerations pins the aliasing fence:
// journalled appends advance generations past the materialized version, and
// a delete / re-upload cycle — in-process or across a restart — must start
// beyond every generation ever issued, or retained release keys could alias
// new data.
func TestDeleteRecreateNeverReissuesDeltaGenerations(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DatasetBudget: 100, Workers: 1, Seed: 5}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewWithStore(cfg, st)
	g := graph.RandomAverageDegree(noise.NewRand(13), 12, 2)
	if _, err := s.UploadGraph("g", []byte(graphText(g))); err != nil { // v1
		t.Fatal(err)
	}
	if _, err := s.AppendDataset("g", AppendRequest{Edges: "0 11\n"}); err != nil { // v2, delta only
		t.Fatal(err)
	}
	s.rewarmWG.Wait()
	if err := s.DeleteDataset("g"); err != nil {
		t.Fatal(err)
	}
	if len(st.DeltasFor("g")) != 0 {
		t.Fatal("delete left journalled deltas behind")
	}
	if _, err := s.UploadGraph("g", []byte(graphText(g))); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.reg.Get("g")
	if ds.Gen <= 2 {
		t.Fatalf("in-process re-create reissued generation %d (deltas reached 2)", ds.Gen)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Same fence across a restart: the tombstone's version floor carries it.
	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, _ := NewWithStore(cfg, st2)
	if err := s2.DeleteDataset("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.UploadGraph("g", []byte(graphText(g))); err != nil {
		t.Fatal(err)
	}
	ds2, _ := s2.reg.Get("g")
	if ds2.Gen <= ds.Gen {
		t.Fatalf("post-restart re-create reissued generation %d (prior life reached %d)", ds2.Gen, ds.Gen)
	}
}

// TestAppendRelational covers the row-append path: durable services
// re-materialize the combined tables (the appended rows change the next
// compile's answer space), and in-memory services reject with a typed 400.
func TestAppendRelational(t *testing.T) {
	tables := map[string][]byte{
		"edges": []byte("u v\na b @ a & b\nb c @ b & c\n"),
	}
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, _ := NewWithStore(Config{DatasetBudget: 100, Workers: 1, Seed: 5}, st)
	if _, err := s.UploadTables("r", tables); err != nil {
		t.Fatal(err)
	}
	info, err := s.AppendDataset("r", AppendRequest{Rows: map[string]string{"edges": "c d @ c & d"}})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := s.reg.Get("r")
	if ds.Gen != 2 {
		t.Fatalf("relational append landed at gen %d, want 2", ds.Gen)
	}
	if len(info.Tables) != 1 || info.Tables[0] != "edges" {
		t.Fatalf("append info %+v", info)
	}
	// The appended row is part of the catalogue now: a count over edges
	// sees three rows' participants, not two.
	texts, ver, err := st.Datasets().RawTables("r")
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 || !strings.Contains(string(texts["edges"]), "c d @ c & d") {
		t.Fatalf("materialized v%d text %q", ver, texts["edges"])
	}
	if _, err := s.AppendDataset("r", AppendRequest{Rows: map[string]string{"absent": "x y"}}); err == nil {
		t.Fatal("append to unknown table succeeded")
	}

	mem := New(Config{DatasetBudget: 100, Workers: 1, Seed: 5})
	u, db, _, err := store.ParseTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.AddRelational("r", u, db); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.AppendDataset("r", AppendRequest{Rows: map[string]string{"edges": "c d @ c & d"}}); err == nil {
		t.Fatal("in-memory relational append succeeded, want typed rejection")
	}
}

// TestDeltaCompileCountersExposed is the counter sanity check CI's bench
// step leans on: after an append with a warm plan, the /metrics scrape
// carries the recmech_dataset_appends_total and recmech_delta_compile_*
// families with internally consistent values. The delta counters are
// process-global, so assertions are lower bounds and invariants, not
// exact values.
func TestDeltaCompileCountersExposed(t *testing.T) {
	s := New(Config{DatasetBudget: 100, Workers: 1, Seed: 3})
	g := graph.RandomAverageDegree(noise.NewRand(7), 20, 4)
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Query(ctx, Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDataset("g", AppendRequest{Edges: freshEdges(g, 1)[0]}); err != nil {
		t.Fatal(err)
	}
	s.rewarmWG.Wait()

	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	scrape := string(raw)

	val := func(family string) float64 {
		t.Helper()
		for _, line := range strings.Split(scrape, "\n") {
			if rest, ok := strings.CutPrefix(line, family+" "); ok {
				var v float64
				if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
					t.Fatalf("unparsable %s value %q", family, rest)
				}
				return v
			}
		}
		t.Fatalf("family %s missing from scrape", family)
		return 0
	}
	if v := val("recmech_dataset_appends_total"); v < 1 {
		t.Errorf("appends_total = %v, want ≥ 1", v)
	}
	advances := val("recmech_delta_compile_advances_total")
	if advances < 1 {
		t.Errorf("advances_total = %v, want ≥ 1", advances)
	}
	units := val("recmech_delta_compile_units_total")
	dirty := val("recmech_delta_compile_units_dirty_total")
	if units < dirty {
		t.Errorf("units_total %v < units_dirty_total %v", units, dirty)
	}
	if v := val("recmech_delta_compile_identical_total"); v > advances {
		t.Errorf("identical_total %v > advances_total %v", v, advances)
	}
	for _, family := range []string{
		"recmech_delta_compile_fallbacks_total",
		"recmech_delta_compile_tuples_reused_total",
		"recmech_delta_compile_tuples_encoded_total",
		"recmech_delta_compile_values_carried_total",
	} {
		if v := val(family); v < 0 {
			t.Errorf("%s = %v, want ≥ 0", family, v)
		}
	}
}

// TestAppendValidation sweeps the request-shape rejections.
func TestAppendValidation(t *testing.T) {
	s := New(Config{DatasetBudget: 100, Workers: 1, Seed: 5})
	g := graph.RandomAverageDegree(noise.NewRand(13), 8, 2)
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ds   string
		ap   AppendRequest
	}{
		{"both shapes", "g", AppendRequest{Edges: "0 1", Rows: map[string]string{"t": "x"}}},
		{"neither shape", "g", AppendRequest{}},
		{"rows against graph", "g", AppendRequest{Rows: map[string]string{"t": "x"}}},
		{"unknown dataset", "nope", AppendRequest{Edges: "0 1"}},
		{"bad edge text", "g", AppendRequest{Edges: "zero one"}},
		{"declared node count past graph.MaxNodes", "g", AppendRequest{Edges: "# nodes 70368744177664\n"}},
		{"endpoint past graph.MaxNodes", "g", AppendRequest{Edges: "0 70368744177664\n"}},
	}
	for _, tc := range cases {
		_, err := s.AppendDataset(tc.ds, tc.ap)
		if err == nil {
			t.Errorf("%s: append succeeded, want error", tc.name)
		} else if tc.ds == "g" && !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: %v, want a bad request", tc.name, err)
		}
	}
	// A duplicate of an existing edge is rejected: the delta-compile
	// contract needs Added to be genuinely new edges.
	e := g.Edges()[0]
	if _, err := s.AppendDataset("g", AppendRequest{Edges: fmt.Sprintf("%d %d", e.U, e.V)}); err == nil {
		t.Error("duplicate-edge append succeeded, want error")
	}
}
