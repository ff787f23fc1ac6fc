package store

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"recmech/internal/graph"
)

const edgeList = "# nodes 4\n0 1\n1 2\n0 2\n2 3\n"

const visitsTable = "patient cond\nalice flu @ a\nbob flu @ b\n"
const rxTable = "patient drug\nalice oseltamivir @ a\n"

func TestDatasetGraphRoundTrip(t *testing.T) {
	st := openTest(t, t.TempDir())
	defer st.Close()
	ds := st.Datasets()

	df, err := ds.PutGraph("social", []byte(edgeList))
	if err != nil {
		t.Fatal(err)
	}
	if df.Version != 1 || df.Graph.NumNodes() != 4 || df.Graph.NumEdges() != 4 {
		t.Errorf("put: version %d, %d nodes, %d edges", df.Version, df.Graph.NumNodes(), df.Graph.NumEdges())
	}

	got, err := ds.Load("social")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindGraph || got.Graph.NumEdges() != 4 || got.Version != 1 {
		t.Errorf("load: %+v", got)
	}
}

// TestPutBuiltGraph stores a graph the caller already holds: the returned
// dataset carries that graph itself, the version honours the floor, and a
// load reads back the same nodes and edges.
func TestPutBuiltGraph(t *testing.T) {
	st := openTest(t, t.TempDir())
	defer st.Close()
	ds := st.Datasets()
	if _, err := ds.PutGraph("social", []byte(edgeList)); err != nil {
		t.Fatal(err)
	}
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	df, err := ds.PutBuiltGraph("social", g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if df.Graph != g || df.Version != 7 || df.Kind != KindGraph {
		t.Fatalf("put: graph %p (want %p), version %d, kind %q", df.Graph, g, df.Version, df.Kind)
	}
	got, err := ds.Load("social")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || got.Graph.NumNodes() != 6 || !slices.Equal(got.Graph.Edges(), g.Edges()) {
		t.Fatalf("load: version %d, %d nodes, edges %v; want 7, 6, %v", got.Version, got.Graph.NumNodes(), got.Graph.Edges(), g.Edges())
	}
}

func TestDatasetTablesRoundTrip(t *testing.T) {
	st := openTest(t, t.TempDir())
	defer st.Close()
	ds := st.Datasets()

	df, err := ds.PutTables("med", map[string][]byte{
		"visits": []byte(visitsTable),
		"rx":     []byte(rxTable),
	})
	if err != nil {
		t.Fatal(err)
	}
	if df.DB == nil || len(df.DB.Names()) != 2 {
		t.Fatalf("put parsed %+v", df)
	}

	got, err := ds.Load("med")
	if err != nil {
		t.Fatal(err)
	}
	names := got.DB.Names()
	if len(names) != 2 {
		t.Errorf("loaded tables %v", names)
	}
}

func TestDatasetVersioningSurvivesDelete(t *testing.T) {
	st := openTest(t, t.TempDir())
	defer st.Close()
	ds := st.Datasets()

	if _, err := ds.PutGraph("g", []byte(edgeList)); err != nil {
		t.Fatal(err)
	}
	df2, err := ds.PutGraph("g", []byte("0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if df2.Version != 2 {
		t.Errorf("re-upload version %d, want 2", df2.Version)
	}
	if err := ds.Delete("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Load("g"); !errors.Is(err, ErrNoDataset) {
		t.Errorf("load after delete: %v", err)
	}
	if err := ds.Delete("g"); !errors.Is(err, ErrNoDataset) {
		t.Errorf("double delete: %v", err)
	}
	// Version keeps climbing across the tombstone: a stale cached release
	// keyed on version ≤ 2 can never alias the recreated dataset.
	df3, err := ds.PutGraph("g", []byte(edgeList))
	if err != nil {
		t.Fatal(err)
	}
	if df3.Version != 3 {
		t.Errorf("post-delete upload version %d, want 3", df3.Version)
	}
}

func TestDatasetNameValidation(t *testing.T) {
	st := openTest(t, t.TempDir())
	defer st.Close()
	ds := st.Datasets()

	for _, bad := range []string{
		"", "..", "../evil", "a/b", ".hidden", "-lead", "UPPER",
		"nul\x00byte", strings.Repeat("x", 65), "name with space",
	} {
		if _, err := ds.PutGraph(bad, []byte(edgeList)); err == nil {
			t.Errorf("PutGraph accepted unsafe name %q", bad)
		}
		if err := ds.Delete(bad); err == nil {
			t.Errorf("Delete accepted unsafe name %q", bad)
		}
	}
	for _, good := range []string{"a", "social-2024", "a.b_c", "x1"} {
		if _, err := ds.PutGraph(good, []byte(edgeList)); err != nil {
			t.Errorf("PutGraph rejected safe name %q: %v", good, err)
		}
	}
	// Table names go through the same gate.
	if _, err := ds.PutTables("t", map[string][]byte{"../../etc/passwd": []byte(visitsTable)}); err == nil {
		t.Error("PutTables accepted traversal table name")
	}
}

func TestDatasetRejectsBadPayloadBeforeDisk(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir)
	defer st.Close()
	ds := st.Datasets()

	if _, err := ds.PutGraph("g", []byte("not an edge list")); err == nil {
		t.Fatal("bad edge list accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, "datasets", "g", "manifest.json")); !os.IsNotExist(err) {
		t.Error("rejected upload left a manifest behind")
	}
	if _, err := ds.PutTables("m", map[string][]byte{"t": []byte("")}); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestLoadAllSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir)
	defer st.Close()
	ds := st.Datasets()
	if _, err := ds.PutGraph("good", []byte(edgeList)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.PutGraph("bad", []byte(edgeList)); err != nil {
		t.Fatal(err)
	}
	// Corrupt "bad" on disk behind the store's back.
	if err := os.WriteFile(filepath.Join(dir, "datasets", "bad", "v1", "graph.txt"), []byte("garbage here"), 0o644); err != nil {
		t.Fatal(err)
	}

	files, errs := ds.LoadAll()
	if len(files) != 1 || files[0].Name != "good" {
		t.Errorf("LoadAll files: %+v", files)
	}
	if len(errs) != 1 {
		t.Errorf("LoadAll errs: %v", errs)
	}
}
