package service

import (
	"sort"
	"strings"
	"sync"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/query"
)

// Dataset is one named sensitive database held by the registry: either a
// graph (for the subgraph-count workloads) or a relational catalogue (for
// the SQL-like front end). A Dataset is an immutable snapshot — re-register
// under the same name to replace it; readers holding the old handle keep a
// consistent view, and the bumped Gen fences stale release-cache entries.
type Dataset struct {
	Name string
	Gen  uint64 // registration generation, part of every cache key

	// Durable marks a dataset whose Gen is a dataset-store version and
	// therefore stable across restarts. Only releases against durable
	// datasets are journalled for replay: a flag-loaded dataset restarts
	// at Gen 1 with possibly different data, so replaying its old
	// releases would serve stale answers.
	Durable bool

	// Exactly one of the two shapes is populated.
	Graph    *graph.Graph       // graph dataset
	DB       *query.Database    // relational dataset: table catalogue …
	Universe *boolexpr.Universe // … and its participant universe
}

// Kind returns "graph" or "relational".
func (d *Dataset) Kind() string {
	if d.Graph != nil {
		return "graph"
	}
	return "relational"
}

// DatasetInfo is the public (non-sensitive) description of a dataset. Sizes
// are course metadata the operator registered knowingly; tuple-level content
// never leaves the service.
type DatasetInfo struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Nodes  int      `json:"nodes,omitempty"`  // graph datasets
	Edges  int      `json:"edges,omitempty"`  // graph datasets
	Tables []string `json:"tables,omitempty"` // relational datasets
	// Budget is the dataset's ε ledger, filled in by Service.Datasets so
	// one listing shows operators data and budget state together.
	Budget *BudgetStatus `json:"budget,omitempty"`
}

// Registry holds the named datasets behind a read-write lock: lookups take
// the read side, (re-)registration the write side. Generations are
// per-name and monotone for the registry's whole life — lastGen outlives
// Delete, so a deleted-then-recreated dataset never reuses a generation a
// stale release-cache entry might still be keyed on.
type Registry struct {
	mu      sync.RWMutex
	sets    map[string]*Dataset
	lastGen map[string]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sets: make(map[string]*Dataset), lastGen: make(map[string]uint64)}
}

// put registers d. gen 0 means "next per-name generation"; a nonzero gen
// (a durable dataset-store version) is adopted as-is, which is what keeps
// cache keys of persisted releases valid across restarts. A durable put
// never downgrades: if a newer version is already registered (two uploads
// racing, the later store version registering first), the newer snapshot
// stays and is returned.
func (r *Registry) put(d *Dataset, gen uint64) *Dataset {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen == 0 {
		gen = r.lastGen[d.Name] + 1
	} else {
		d.Durable = true
		if cur, ok := r.sets[d.Name]; ok && cur.Durable && cur.Gen > gen {
			return cur
		}
	}
	if gen > r.lastGen[d.Name] {
		r.lastGen[d.Name] = gen
	}
	d.Gen = gen
	r.sets[d.Name] = d
	return d
}

// PutGraph registers (or replaces) a graph dataset.
func (r *Registry) PutGraph(name string, g *graph.Graph) *Dataset {
	return r.put(&Dataset{Name: canonName(name), Graph: g}, 0)
}

// PutGraphVersion registers a graph dataset at an explicit durable version.
func (r *Registry) PutGraphVersion(name string, g *graph.Graph, version uint64) *Dataset {
	return r.put(&Dataset{Name: canonName(name), Graph: g}, version)
}

// PutRelational registers (or replaces) a relational dataset: a table
// catalogue together with the participant universe its annotations were
// loaded under.
func (r *Registry) PutRelational(name string, u *boolexpr.Universe, db *query.Database) *Dataset {
	return r.put(&Dataset{Name: canonName(name), DB: db, Universe: u}, 0)
}

// PutRelationalVersion registers a relational dataset at an explicit
// durable version.
func (r *Registry) PutRelationalVersion(name string, u *boolexpr.Universe, db *query.Database, version uint64) *Dataset {
	return r.put(&Dataset{Name: canonName(name), DB: db, Universe: u}, version)
}

// LastGen returns the highest generation ever registered under name in this
// registry's life (0 for a name never seen). It outlives Delete — the
// serving layer uses it to floor durable versions so no generation is ever
// re-issued for different data.
func (r *Registry) LastGen(name string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lastGen[canonName(name)]
}

// Delete unregisters a dataset, reporting whether it was present. Its
// generation history is kept so a later re-registration starts beyond it.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cn := canonName(name)
	_, ok := r.sets[cn]
	delete(r.sets, cn)
	return ok
}

// Get returns the current snapshot of a dataset, or an error matching
// ErrUnknownDataset.
func (r *Registry) Get(name string) (*Dataset, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.sets[canonName(name)]
	if !ok {
		return nil, unknownDataset(name)
	}
	return d, nil
}

// info builds the public description of this dataset snapshot.
func (d *Dataset) info() DatasetInfo {
	info := DatasetInfo{Name: d.Name, Kind: d.Kind()}
	if d.Graph != nil {
		info.Nodes = d.Graph.NumNodes()
		info.Edges = d.Graph.NumEdges()
	} else {
		info.Tables = d.DB.Names()
		sort.Strings(info.Tables)
	}
	return info
}

// List describes every registered dataset, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.sets))
	for _, d := range r.sets {
		out = append(out, d.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func canonName(name string) string { return strings.ToLower(strings.TrimSpace(name)) }
