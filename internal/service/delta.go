package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"recmech/internal/graph"
	"recmech/internal/plan"
	"recmech/internal/store"
	"recmech/internal/trace"
)

// AppendRequest is the body of PATCH /v1/datasets/{name}: a dataset delta.
// Exactly one of the two fields must be set, matching the dataset's kind.
// Edges is edge-list text (graph.ReadEdgeList format — a "# nodes N" header
// may grow the node universe) added to a graph dataset; Rows maps table
// names to row text (query.LoadTable row syntax, no header line) appended to
// a relational dataset's existing tables.
type AppendRequest struct {
	Edges string            `json:"edges,omitempty"`
	Rows  map[string]string `json:"rows,omitempty"`
}

// maxRewarmPlans bounds the background re-warm pass after an append: at most
// this many of the predecessor generation's cached plans are advanced to the
// new generation. Appends must stay cheap on the admin path no matter how
// hot the plan cache is; plans beyond the bound simply compile fresh on
// their next query.
const maxRewarmPlans = 8

// deltaKeepWindow is how many journalled graph deltas may accumulate in the
// WAL before an append folds them into a full re-materialization of the
// dataset. Recovery replays the chain either way; the window only trades
// boot-time replay work against write amplification on the append path.
const deltaKeepWindow = 64

// AppendDataset applies a delta to a registered dataset, advancing it one
// micro-generation. Graph appends add edges (and optionally nodes) to the
// current snapshot; on a durable service the delta itself is journalled in
// the WAL beside the release records — replayable history, the full
// edge-list is only re-materialized once deltaKeepWindow deltas
// accumulate. Relational appends add rows to existing tables and always
// re-materialize (SQL plans have no incremental path), so they require a
// durable store.
//
// The append then maintains cache lineage: release- and plan-cache entries
// of generations no longer reachable are purged eagerly, and up to
// maxRewarmPlans of the predecessor's cached plans are advanced to the new
// generation in the background via plan.Advance — the delta-compile path
// that makes the next query on a touched workload pay microseconds, not a
// fresh compile.
func (s *Service) AppendDataset(name string, ap AppendRequest) (DatasetInfo, error) {
	canon := canonName(name)
	if err := store.ValidateName(canon); err != nil {
		return DatasetInfo{}, badRequestf("%v", err)
	}
	hasEdges := strings.TrimSpace(ap.Edges) != ""
	if hasEdges == (len(ap.Rows) > 0) {
		return DatasetInfo{}, badRequestf("append body needs exactly one of \"edges\" (graph dataset) or \"rows\" (relational dataset)")
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	ds, err := s.reg.Get(canon)
	if err != nil {
		return DatasetInfo{}, err
	}
	root := s.tr.Start("dataset.append")
	root.Str("dataset", canon)
	var info DatasetInfo
	if hasEdges {
		info, err = s.appendGraph(root, ds, ap)
	} else {
		info, err = s.appendTables(root, ds, ap)
	}
	if err != nil {
		root.Str("error", err.Error())
	}
	s.tr.Finish(root)
	return info, err
}

// appendGraph applies an edge delta under adminMu. Durable flow is
// journal-before-memory: the WAL delta record lands first, so a crash
// between journal and registration replays the append at boot rather than
// losing it, and the release journal can never hold a key for a generation
// the WAL cannot reconstruct.
func (s *Service) appendGraph(root *trace.Span, ds *Dataset, ap AppendRequest) (DatasetInfo, error) {
	if ds.Graph == nil {
		return DatasetInfo{}, badRequestf("dataset %q is relational; append rows, not edges", ds.Name)
	}
	n, added, err := graph.ReadEdges(strings.NewReader(ap.Edges))
	if err != nil {
		return DatasetInfo{}, badRequestf("graph append: %v", err)
	}
	if len(added) == 0 && n <= ds.Graph.NumNodes() {
		return DatasetInfo{}, badRequestf("append carries no new edges or nodes")
	}
	// ReadEdges already dropped repeats within the delta, so checking
	// against the current snapshot alone makes every added edge new.
	dup := 0
	for _, e := range added {
		if ds.Graph.HasEdge(e.U, e.V) {
			dup++
		}
	}
	if dup > 0 {
		return DatasetInfo{}, badRequestf("append repeats %d edge(s) already present", dup)
	}
	g2 := ds.Graph.Extend(n, added)
	root.Int("edges", int64(len(added)))

	var d2 *Dataset
	if s.store != nil && ds.Durable {
		newGen := ds.Gen + 1
		payload, err := json.Marshal(ap)
		if err != nil {
			return DatasetInfo{}, err
		}
		if err := s.store.AppendDelta(ds.Name, newGen, payload); err != nil {
			return DatasetInfo{}, err
		}
		// Keep-window: once enough deltas pile up, fold them into a full
		// edge-list materialization at exactly the current generation and
		// drop the journal entries — recovery then loads one file instead
		// of replaying a long chain. Best-effort: a failed materialize
		// leaves the (fully sufficient) delta chain in place.
		if len(s.store.DeltasFor(ds.Name)) >= deltaKeepWindow {
			if _, err := s.store.Datasets().PutBuiltGraph(ds.Name, g2, newGen); err == nil {
				_ = s.store.DropDeltas(ds.Name, newGen)
				root.Bool("materialized", true)
			}
		}
		d2 = s.reg.PutGraphVersion(ds.Name, g2, newGen)
	} else {
		d2 = s.reg.PutGraph(ds.Name, g2)
	}
	root.Int("gen", int64(d2.Gen))
	s.met.appends.Inc()

	rewarmed := s.rewarmPlans(ds, d2, plan.Delta{Added: added})
	root.Int("rewarm", int64(rewarmed))
	purged := s.purgeStale(d2.Name, currentKeyPrefix(d2))
	root.Int("purged", int64(purged))
	return s.describe(d2), nil
}

// appendTables applies a row delta to a relational dataset. There is no
// incremental compile path for SQL (plan.Advance falls back anyway), so the
// combined tables are re-materialized immediately — which requires the
// durable store's copy of the current table texts.
func (s *Service) appendTables(root *trace.Span, ds *Dataset, ap AppendRequest) (DatasetInfo, error) {
	if ds.DB == nil {
		return DatasetInfo{}, badRequestf("dataset %q is a graph; append edges, not rows", ds.Name)
	}
	if s.store == nil || !ds.Durable {
		return DatasetInfo{}, badRequestf("relational appends require a durable store (-data-dir)")
	}
	texts, _, err := s.store.Datasets().RawTables(ds.Name)
	if err != nil {
		return DatasetInfo{}, err
	}
	rows := 0
	for tbl, add := range ap.Rows {
		base, ok := texts[strings.ToLower(strings.TrimSpace(tbl))]
		if !ok {
			return DatasetInfo{}, badRequestf("append to unknown table %q", tbl)
		}
		if strings.TrimSpace(add) == "" {
			return DatasetInfo{}, badRequestf("append to table %q carries no rows", tbl)
		}
		texts[strings.ToLower(strings.TrimSpace(tbl))] = appendRows(base, add)
		rows++
	}
	root.Int("tables", int64(rows))
	df, err := s.store.Datasets().PutTablesFloor(ds.Name, texts, ds.Gen+1)
	if err != nil {
		if errors.Is(err, store.ErrBadData) {
			return DatasetInfo{}, badRequestf("relational append to %q: %v", ds.Name, err)
		}
		return DatasetInfo{}, err
	}
	d2, err := s.registerFile(df)
	if err != nil {
		return DatasetInfo{}, err
	}
	root.Int("gen", int64(d2.Gen))
	s.met.appends.Inc()
	purged := s.purgeStale(d2.Name, currentKeyPrefix(d2))
	root.Int("purged", int64(purged))
	return s.describe(d2), nil
}

// rewarmPlans advances up to maxRewarmPlans of the old generation's cached
// plans to the new generation. Collection is synchronous (under adminMu, via
// Peek — no hit-ratio skew, no flights joined), and so is registering each
// advance as the plan cache's flight for its new key; only the Advance
// calls run in the background. Every query that reaches the plan cache
// after the append answers therefore joins an advance instead of compiling
// from scratch.
func (s *Service) rewarmPlans(old, cur *Dataset, d plan.Delta) int {
	if cur.Graph == nil {
		return 0
	}
	oldPrefix := fmt.Sprintf("%s%s%d|", old.Name, genTag(old), old.Gen)
	newPrefix := currentKeyPrefix(cur)
	src := plan.Source{Graph: cur.Graph}
	n := 0
	for _, k := range s.plans.Keys() {
		if n >= maxRewarmPlans {
			break
		}
		if !strings.HasPrefix(k, oldPrefix) {
			continue
		}
		pl, ok := s.plans.Peek(k)
		if !ok || pl == nil || pl.Spec() == nil {
			continue
		}
		s.rewarmWG.Add(1)
		started := s.plans.Go(newPrefix+k[len(oldPrefix):], func() (*plan.Plan, error) {
			np, prof, err := pl.Advance(context.Background(), src, d, s.compileWorkers())
			if err == nil && prof.Fallback {
				// A fallback recompile is a fresh compile in all but
				// name; record it where fresh compiles are recorded.
				s.compiles.note(np.Profile())
			}
			return np, err
		}, s.rewarmWG.Done)
		if !started {
			s.rewarmWG.Done()
		}
		n++
	}
	return n
}

// currentKeyPrefix is the cache-key prefix of a dataset's current
// generation — the byte-frozen "<name><genTag><gen>|" stem both the release
// and the plan key formats open with.
func currentKeyPrefix(d *Dataset) string {
	return fmt.Sprintf("%s%s%d|", d.Name, genTag(d), d.Gen)
}

// purgeStale drops release- and plan-cache entries of name's unreachable
// generations: every key of the dataset except those under keepPrefix
// (keepPrefix "" keeps nothing — the delete path). Durable release records
// pruned here were already fenced by the generation segment of the key; the
// purge reclaims the memory eagerly instead of waiting for FIFO eviction.
//
// The predicate matches "<name>@…" and "<name>#…" exactly: '@' and '#' are
// not valid dataset-name bytes (store.ValidateName), so a dataset whose name
// extends another's ("graph2" vs "graph") can never be caught by its prefix.
func (s *Service) purgeStale(name, keepPrefix string) int {
	pred := func(key string) bool {
		rest, ok := strings.CutPrefix(key, name)
		if !ok || rest == "" || (rest[0] != '@' && rest[0] != '#') {
			return false
		}
		return keepPrefix == "" || !strings.HasPrefix(key, keepPrefix)
	}
	return s.cache.RemoveFunc(pred) + s.plans.RemoveFunc(pred)
}

// appendRows joins existing table text with appended row lines, normalizing
// the seam to exactly one newline so the result is what the operator would
// have uploaded whole.
func appendRows(base []byte, add string) []byte {
	out := bytes.TrimRight(base, "\n")
	out = append(out, '\n')
	out = append(out, strings.TrimRight(add, "\n")...)
	out = append(out, '\n')
	return out
}

// replayDeltas extends a boot-loaded graph dataset with the WAL's journalled
// deltas beyond its materialized version, registering each micro-generation
// at its recorded version so persisted release keys keep replaying. A delta
// that fails to parse stops the chain for that dataset (versions must stay
// contiguous) and is reported as a boot warning.
func (s *Service) replayDeltas(df *store.DatasetFile) []error {
	var warns []error
	for _, del := range s.store.DeltasFor(df.Name) {
		if del.Version <= df.Version {
			continue
		}
		cur, err := s.reg.Get(df.Name)
		if err != nil {
			break
		}
		var ap AppendRequest
		if err := json.Unmarshal(del.Payload, &ap); err != nil {
			warns = append(warns, fmt.Errorf("service: dataset %q: delta v%d undecodable, later deltas skipped: %w", df.Name, del.Version, err))
			break
		}
		n, added, err := graph.ReadEdges(strings.NewReader(ap.Edges))
		if err != nil {
			warns = append(warns, fmt.Errorf("service: dataset %q: delta v%d unreadable, later deltas skipped: %w", df.Name, del.Version, err))
			break
		}
		s.reg.PutGraphVersion(df.Name, cur.Graph.Extend(n, added), del.Version)
	}
	return warns
}
