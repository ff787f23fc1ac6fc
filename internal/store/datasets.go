package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/query"
)

// Dataset kinds stored on disk.
const (
	KindGraph      = "graph"
	KindRelational = "relational"
)

// ErrNoDataset reports a dataset absent from the store.
var ErrNoDataset = errors.New("store: no such dataset")

// ErrBadData marks upload failures caused by the caller's payload (parse
// or validation errors) as opposed to store I/O faults, so the serving
// layer can map them to client errors without parsing twice.
var ErrBadData = errors.New("store: invalid dataset data")

// validName admits exactly the names that are safe as directory names:
// lowercase alphanumerics with inner dots, dashes and underscores. The
// first character is alphanumeric, so "..", ".hidden" and "" are out, and
// the character class has no separators, so a name can never escape the
// datasets directory.
var validName = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// ValidateName rejects dataset (and table) names that could traverse or
// collide on the filesystem. Call it with the canonical (lowercased,
// trimmed) name.
func ValidateName(name string) error {
	if !validName.MatchString(name) {
		return fmt.Errorf("store: invalid dataset name %q: want 1-64 of [a-z0-9._-] starting alphanumeric", name)
	}
	return nil
}

// manifest is the per-dataset metadata file, written atomically. Version
// is monotonic across the dataset's whole life — deletion keeps the
// manifest as a tombstone so a re-upload continues the sequence, which is
// what lets release-cache keys (which embed the version) stay correctly
// fenced across delete/re-create cycles.
type manifest struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Version uint64   `json:"version"`
	Deleted bool     `json:"deleted,omitempty"`
	Tables  []string `json:"tables,omitempty"`
}

// DatasetFile is one dataset loaded from (or just written to) the store,
// parsed and ready to register with the serving layer.
type DatasetFile struct {
	Name    string
	Kind    string
	Version uint64

	Graph    *graph.Graph       // KindGraph
	Universe *boolexpr.Universe // KindRelational
	DB       *query.Database    // KindRelational
}

// Datasets is the on-disk dataset store: one directory per dataset holding
// a manifest plus immutable version directories. Writers parse and
// validate before anything touches disk, write the new version completely,
// then swing the manifest — a crash mid-upload leaves the previous version
// live.
type Datasets struct {
	dir    string
	nosync bool
	mu     sync.Mutex
}

func openDatasets(dir string, nosync bool) (*Datasets, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Datasets{dir: dir, nosync: nosync}, nil
}

// PutGraph validates and stores edgeList (graph.ReadEdgeList format) as the
// next version of the named graph dataset, returning the parsed dataset.
func (d *Datasets) PutGraph(name string, edgeList []byte) (*DatasetFile, error) {
	return d.PutGraphFloor(name, edgeList, 0)
}

// PutGraphFloor is PutGraph with a version floor: the stored version is
// max(current+1, floor). The delta-compile path materializes micro-
// generations it already journalled (and served) under specific version
// numbers; the floor keeps the on-disk counter from lagging behind them,
// which would alias release-cache keys of distinct generations — a privacy
// bug, not just a cache bug.
func (d *Datasets) PutGraphFloor(name string, edgeList []byte, floor uint64) (*DatasetFile, error) {
	g, err := graph.ReadEdgeList(bytes.NewReader(edgeList))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadData, err)
	}
	return d.putGraph(name, g, edgeList, floor)
}

// PutBuiltGraph is PutGraphFloor for a graph the caller already holds
// rather than outside input: it stores g's WriteEdgeList text without
// parsing it back, and the returned dataset carries g itself.
func (d *Datasets) PutBuiltGraph(name string, g *graph.Graph, floor uint64) (*DatasetFile, error) {
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		return nil, err
	}
	return d.putGraph(name, g, buf.Bytes(), floor)
}

func (d *Datasets) putGraph(name string, g *graph.Graph, edgeList []byte, floor uint64) (*DatasetFile, error) {
	df := &DatasetFile{Name: name, Kind: KindGraph, Graph: g}
	err := d.putVersion(name, KindGraph, nil, df, floor, func(verDir string) error {
		return writeFileAtomic(filepath.Join(verDir, "graph.txt"), edgeList, d.nosync)
	})
	if err != nil {
		return nil, err
	}
	return df, nil
}

// ParseTables parses a set of named annotated tables (query.LoadTable
// format) into one database sharing a participant universe, returning the
// sorted table names. Parsing happens in sorted-name order so universe
// variable allocation — and with it the annotations' variable identities —
// is deterministic across loads of the same files.
func ParseTables(tables map[string][]byte) (*boolexpr.Universe, *query.Database, []string, error) {
	if len(tables) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: relational dataset needs at least one table", ErrBadData)
	}
	u := boolexpr.NewUniverse()
	db := query.NewDatabase()
	names := make([]string, 0, len(tables))
	for tbl := range tables {
		names = append(names, tbl)
	}
	sort.Strings(names)
	for _, tbl := range names {
		if err := ValidateName(tbl); err != nil {
			return nil, nil, nil, fmt.Errorf("%w: table %q: %v", ErrBadData, tbl, err)
		}
		rel, err := query.LoadTable(bytes.NewReader(tables[tbl]), u)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%w: table %q: %v", ErrBadData, tbl, err)
		}
		db.Register(tbl, rel)
	}
	return u, db, names, nil
}

// PutTables validates and stores the named tables (all sharing one
// participant universe) as the next version of the named relational
// dataset, returning the parsed dataset.
func (d *Datasets) PutTables(name string, tables map[string][]byte) (*DatasetFile, error) {
	return d.PutTablesFloor(name, tables, 0)
}

// PutTablesFloor is PutTables with a version floor; see PutGraphFloor.
func (d *Datasets) PutTablesFloor(name string, tables map[string][]byte, floor uint64) (*DatasetFile, error) {
	u, db, names, err := ParseTables(tables)
	if err != nil {
		return nil, err
	}
	df := &DatasetFile{Name: name, Kind: KindRelational, Universe: u, DB: db}
	err = d.putVersion(name, KindRelational, names, df, floor, func(verDir string) error {
		for _, tbl := range names {
			if err := writeFileAtomic(filepath.Join(verDir, tbl+".tbl"), tables[tbl], d.nosync); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return df, nil
}

// putVersion allocates the next version directory (at least floor), fills
// it via write, then atomically publishes the manifest. df.Version is set
// on success.
func (d *Datasets) putVersion(name, kind string, tables []string, df *DatasetFile, floor uint64, write func(verDir string) error) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	m, err := d.readManifest(name)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var version uint64 = 1
	if m != nil {
		version = m.Version + 1
	}
	if version < floor {
		version = floor
	}
	dsDir := filepath.Join(d.dir, name)
	verDir := filepath.Join(dsDir, fmt.Sprintf("v%d", version))
	if err := os.MkdirAll(verDir, 0o755); err != nil {
		return err
	}
	sweepTemps(dsDir) // orphans from a crash mid-manifest-write
	if err := write(verDir); err != nil {
		return err
	}
	if !d.nosync {
		if err := syncDir(verDir); err != nil {
			return err
		}
	}
	nm := manifest{Name: name, Kind: kind, Version: version, Tables: tables}
	data, err := json.Marshal(nm)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dsDir, "manifest.json"), data, d.nosync); err != nil {
		return err
	}
	if !d.nosync {
		// writeFileAtomic synced dsDir's contents; the datasets/ root also
		// needs a sync so the <name> dirent itself survives power loss on
		// a first upload.
		if err := syncDir(d.dir); err != nil {
			return err
		}
	}
	d.removeStaleVersions(dsDir, version)
	df.Version = version
	return nil
}

// Delete tombstones a dataset: the manifest stays (preserving the version
// counter) but the data directories are removed and loads report
// ErrNoDataset. Deleting an absent dataset is an error.
func (d *Datasets) Delete(name string) error {
	return d.DeleteFloor(name, 0)
}

// DeleteFloor is Delete with a version floor adopted into the tombstone:
// the preserved version counter is raised to at least floor, so a later
// re-creation starts beyond every generation the caller has issued —
// including WAL-journalled delta generations that were never materialized
// here, which a plain tombstone would know nothing about.
func (d *Datasets) DeleteFloor(name string, floor uint64) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	m, err := d.readManifest(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: %q", ErrNoDataset, name)
		}
		return err
	}
	if m.Deleted {
		return fmt.Errorf("%w: %q", ErrNoDataset, name)
	}
	m.Deleted = true
	if m.Version < floor {
		m.Version = floor
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	dsDir := filepath.Join(d.dir, name)
	if err := writeFileAtomic(filepath.Join(dsDir, "manifest.json"), data, d.nosync); err != nil {
		return err
	}
	d.removeStaleVersions(dsDir, m.Version+1) // all version dirs are stale now
	return nil
}

// Load reads and parses the current version of one dataset.
func (d *Datasets) Load(name string) (*DatasetFile, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.loadLocked(name)
}

// LoadAll loads every live dataset, sorted by name. Datasets that fail to
// parse are skipped and reported in errs — one corrupt upload must not
// keep a daemon holding nine good datasets from booting.
func (d *Datasets) LoadAll() (files []*DatasetFile, errs []error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, []error{err}
	}
	for _, ent := range entries {
		if !ent.IsDir() || ValidateName(ent.Name()) != nil {
			continue
		}
		df, err := d.loadLocked(ent.Name())
		if err != nil {
			if !errors.Is(err, ErrNoDataset) { // tombstones are not errors
				errs = append(errs, fmt.Errorf("store: dataset %q: %w", ent.Name(), err))
			}
			continue
		}
		files = append(files, df)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files, errs
}

func (d *Datasets) loadLocked(name string) (*DatasetFile, error) {
	m, err := d.readManifest(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNoDataset, name)
		}
		return nil, err
	}
	if m.Deleted {
		return nil, fmt.Errorf("%w: %q", ErrNoDataset, name)
	}
	verDir := filepath.Join(d.dir, name, fmt.Sprintf("v%d", m.Version))
	df := &DatasetFile{Name: name, Kind: m.Kind, Version: m.Version}
	switch m.Kind {
	case KindGraph:
		data, err := os.ReadFile(filepath.Join(verDir, "graph.txt"))
		if err != nil {
			return nil, err
		}
		if df.Graph, err = graph.ReadEdgeList(bytes.NewReader(data)); err != nil {
			return nil, err
		}
	case KindRelational:
		u := boolexpr.NewUniverse()
		db := query.NewDatabase()
		tables := append([]string(nil), m.Tables...)
		sort.Strings(tables) // same order as PutTables: identical universe allocation
		for _, tbl := range tables {
			if err := ValidateName(tbl); err != nil {
				return nil, err
			}
			data, err := os.ReadFile(filepath.Join(verDir, tbl+".tbl"))
			if err != nil {
				return nil, err
			}
			rel, err := query.LoadTable(bytes.NewReader(data), u)
			if err != nil {
				return nil, fmt.Errorf("table %q: %w", tbl, err)
			}
			db.Register(tbl, rel)
		}
		df.Universe, df.DB = u, db
	default:
		return nil, fmt.Errorf("store: dataset %q has unknown kind %q", name, m.Kind)
	}
	return df, nil
}

// RawTables returns the current version's table texts of a relational
// dataset, byte-for-byte as stored — the base the serving layer concatenates
// row appends onto before persisting the next version.
func (d *Datasets) RawTables(name string) (map[string][]byte, uint64, error) {
	if err := ValidateName(name); err != nil {
		return nil, 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	m, err := d.readManifest(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, fmt.Errorf("%w: %q", ErrNoDataset, name)
		}
		return nil, 0, err
	}
	if m.Deleted {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoDataset, name)
	}
	if m.Kind != KindRelational {
		return nil, 0, fmt.Errorf("store: dataset %q is not relational", name)
	}
	verDir := filepath.Join(d.dir, name, fmt.Sprintf("v%d", m.Version))
	out := make(map[string][]byte, len(m.Tables))
	for _, tbl := range m.Tables {
		data, err := os.ReadFile(filepath.Join(verDir, tbl+".tbl"))
		if err != nil {
			return nil, 0, err
		}
		out[tbl] = data
	}
	return out, m.Version, nil
}

func (d *Datasets) readManifest(name string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, name, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: dataset %q: corrupt manifest: %w", name, err)
	}
	return &m, nil
}

// removeStaleVersions deletes version directories below keep. Best-effort:
// a leftover directory wastes disk but can never be loaded, because only
// the manifest names the live version.
func (d *Datasets) removeStaleVersions(dsDir string, keep uint64) {
	entries, err := os.ReadDir(dsDir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		var v uint64
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "v") {
			continue
		}
		if _, err := fmt.Sscanf(ent.Name(), "v%d", &v); err == nil && v < keep {
			os.RemoveAll(filepath.Join(dsDir, ent.Name()))
		}
	}
}
