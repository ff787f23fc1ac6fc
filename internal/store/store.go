package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"recmech/internal/metrics"
)

// Config tunes a Store. Only Dir is required.
type Config struct {
	// Dir is the store root; created if absent.
	Dir string
	// CompactBytes triggers a background snapshot compaction once the
	// active WAL grows past this many bytes. 0 means the 4 MiB default;
	// negative disables auto-compaction (Compact can still be called).
	CompactBytes int64
	// MaxReleases bounds how many recorded releases the mirror (and with
	// it every snapshot) retains: duplicates collapse to the newest and
	// the oldest beyond the bound are dropped at each compaction and at
	// open. Dropping a release is always safe — a repeat of that query
	// spends fresh ε — and the bound should match the serving cache's
	// (which evicts on the same terms). 0 means the 4096 default.
	MaxReleases int
	// NoSync skips every fsync. Tests only: a crash may then lose
	// arbitrarily many committed events, voiding the ledger guarantee.
	NoSync bool
}

const (
	defaultCompactBytes = 4 << 20
	defaultMaxReleases  = 4096
)

// pruneReleases collapses duplicate keys (newest wins, keeping its
// position) and drops the oldest entries beyond max.
func pruneReleases(rels []Release, max int) []Release {
	seen := make(map[string]bool, len(rels))
	out := make([]Release, 0, len(rels))
	for i := len(rels) - 1; i >= 0; i-- {
		if seen[rels[i].Key] {
			continue
		}
		seen[rels[i].Key] = true
		out = append(out, rels[i])
	}
	// out is newest-first; restore journal order, trimming the oldest.
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	if len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// LedgerState is the durable view of one dataset's ε ledger: the granted
// total and the ε that must be considered spent. Reservations that were
// in flight at a crash are folded into Spent on recovery — the release may
// or may not have happened, so the ledger assumes it did. Recovery can
// therefore only ever shrink the remaining budget, never grow it.
type LedgerState struct {
	Total float64 `json:"total"`
	Spent float64 `json:"spent"`
}

// Release is one recorded DP release: the cache key it answers and the
// marshalled response payload, replayed byte-for-byte after a restart at
// zero additional ε (a published value is public; repeating it is free).
type Release struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// pendingResv is a journalled reservation not yet committed or refunded.
type pendingResv struct {
	Dataset string  `json:"ds"`
	Epsilon float64 `json:"eps"`
}

// DatasetDelta is one journalled dataset append: the micro-generation it
// advanced the dataset to and the opaque delta payload (the serving layer's
// AppendRequest encoding). Deltas live in the WAL beside releases so a
// restart can replay appends newer than the last materialized on-disk
// version; once the serving layer re-materializes a full version it drops
// the deltas at or below it.
type DatasetDelta struct {
	Version uint64          `json:"v"`
	Payload json.RawMessage `json:"p"`
}

// walState is the aggregate the WAL folds to. The store maintains it as a
// live mirror while appending, so a snapshot is a pure marshal of this
// struct — compaction never re-reads the log it is replacing.
type walState struct {
	Ledgers  map[string]LedgerState    `json:"ledgers"`
	Pending  map[uint64]pendingResv    `json:"pending"`
	NextID   uint64                    `json:"nextId"`
	Releases []Release                 `json:"releases"`
	Deltas   map[string][]DatasetDelta `json:"deltas,omitempty"`
}

func newWALState() *walState {
	return &walState{
		Ledgers: make(map[string]LedgerState),
		Pending: make(map[uint64]pendingResv),
		NextID:  1,
		Deltas:  make(map[string][]DatasetDelta),
	}
}

func (st *walState) clone() *walState {
	c := &walState{
		Ledgers:  make(map[string]LedgerState, len(st.Ledgers)),
		Pending:  make(map[uint64]pendingResv, len(st.Pending)),
		NextID:   st.NextID,
		Releases: append([]Release(nil), st.Releases...),
		Deltas:   make(map[string][]DatasetDelta, len(st.Deltas)),
	}
	for k, v := range st.Ledgers {
		c.Ledgers[k] = v
	}
	for k, v := range st.Pending {
		c.Pending[k] = v
	}
	for k, v := range st.Deltas {
		c.Deltas[k] = append([]DatasetDelta(nil), v...)
	}
	return c
}

// event is one WAL record. Op is one of grant, resv, commit, refund, rel,
// delta, deltadrop. Delta records reuse ID as the dataset micro-generation:
// "delta" journals one append advancing Dataset to version ID, "deltadrop"
// forgets every journalled delta of Dataset with version at or below ID
// (the serving layer re-materialized a full on-disk version there).
type event struct {
	Op      string          `json:"op"`
	Dataset string          `json:"ds,omitempty"`
	Total   float64         `json:"total,omitempty"`
	Epsilon float64         `json:"eps,omitempty"`
	ID      uint64          `json:"id,omitempty"`
	Key     string          `json:"key,omitempty"`
	Payload json.RawMessage `json:"p,omitempty"`
}

func (st *walState) apply(e *event) error {
	switch e.Op {
	case "grant":
		l := st.Ledgers[e.Dataset]
		l.Total = e.Total
		st.Ledgers[e.Dataset] = l
	case "resv":
		st.Pending[e.ID] = pendingResv{Dataset: e.Dataset, Epsilon: e.Epsilon}
		if e.ID >= st.NextID {
			st.NextID = e.ID + 1
		}
	case "commit":
		p, ok := st.Pending[e.ID]
		if !ok {
			return nil // already settled (double replay is harmless)
		}
		delete(st.Pending, e.ID)
		l := st.Ledgers[p.Dataset]
		l.Spent += p.Epsilon
		st.Ledgers[p.Dataset] = l
	case "refund":
		delete(st.Pending, e.ID)
	case "rel":
		st.Releases = append(st.Releases, Release{Key: e.Key, Payload: e.Payload})
	case "delta":
		if st.Deltas == nil { // state decoded from a pre-delta snapshot
			st.Deltas = make(map[string][]DatasetDelta)
		}
		st.Deltas[e.Dataset] = append(st.Deltas[e.Dataset], DatasetDelta{Version: e.ID, Payload: e.Payload})
	case "deltadrop":
		kept := st.Deltas[e.Dataset][:0]
		for _, d := range st.Deltas[e.Dataset] {
			if d.Version > e.ID {
				kept = append(kept, d)
			}
		}
		if len(kept) == 0 {
			delete(st.Deltas, e.Dataset)
		} else {
			st.Deltas[e.Dataset] = kept
		}
	default:
		return fmt.Errorf("store: unknown WAL op %q", e.Op)
	}
	return nil
}

// Store is the durable budget ledger and release journal, plus the dataset
// store (Datasets). All methods are safe for concurrent use.
type Store struct {
	cfg       Config
	ledgerDir string
	datasets  *Datasets
	unlock    func() // releases the data-dir flock

	mu         sync.Mutex
	wal        *wal
	seq        uint64
	state      *walState
	compacting bool
	closed     bool
	compactWG  sync.WaitGroup

	// Observability counters (see Metrics). The fsync histogram is shared
	// with every WAL segment the store opens; the serving layer registers
	// it on its /metrics endpoint.
	walAppends  atomic.Uint64
	walBytes    atomic.Uint64
	compactions atomic.Uint64
	compactErrs atomic.Uint64
	fsyncHist   *metrics.Histogram
}

// fsyncBuckets are latency buckets in seconds tuned for fsync: 10µs (page
// cache / NoSync-adjacent) through 1s (a saturated or spinning disk).
func fsyncBuckets() []float64 {
	return []float64{
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
		0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
	}
}

// Metrics is a snapshot of the store's observability counters, all
// monotone over the store's life.
type Metrics struct {
	// WALAppends counts durably acknowledged WAL appends (ledger events
	// and recorded releases).
	WALAppends uint64 `json:"walAppends"`
	// WALBytes counts bytes appended to the WAL, framing included.
	WALBytes uint64 `json:"walBytes"`
	// Compactions counts completed snapshot compactions; CompactionErrors
	// counts compactions that failed (the WAL chain stays recoverable).
	Compactions      uint64 `json:"compactions"`
	CompactionErrors uint64 `json:"compactionErrors"`
}

// Metrics snapshots the store's observability counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		WALAppends:       s.walAppends.Load(),
		WALBytes:         s.walBytes.Load(),
		Compactions:      s.compactions.Load(),
		CompactionErrors: s.compactErrs.Load(),
	}
}

// FsyncHistogram exposes the WAL fsync-latency histogram (seconds) for
// registration on a metrics endpoint. Every budget transition pays one of
// these syncs, so its tail is the ledger's write-latency tail.
func (s *Store) FsyncHistogram() *metrics.Histogram { return s.fsyncHist }

// Open opens (creating if needed) the store rooted at cfg.Dir, recovering
// the ledger to the last complete WAL record: it loads the newest valid
// snapshot, replays every WAL segment at or after it in sequence order,
// truncates a torn tail of the active segment, and folds reservations that
// were still in flight into spent budget.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = defaultCompactBytes
	}
	if cfg.MaxReleases <= 0 {
		cfg.MaxReleases = defaultMaxReleases
	}
	ledgerDir := filepath.Join(cfg.Dir, "ledger")
	if err := os.MkdirAll(ledgerDir, 0o755); err != nil {
		return nil, err
	}
	// One process per data dir, enforced: a second opener would append to
	// the same WAL at its own offset and overwrite acknowledged records.
	unlock, err := lockDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		unlock()
		return nil, err
	}
	sweepTemps(ledgerDir) // orphans from a crash mid-snapshot-write
	ds, err := openDatasets(filepath.Join(cfg.Dir, "datasets"), cfg.NoSync)
	if err != nil {
		return fail(err)
	}

	walSeqs, snapSeqs, err := listSegments(ledgerDir)
	if err != nil {
		return fail(err)
	}

	// Newest snapshot that decodes fully wins; a half-written snapshot
	// (crash mid-compaction) is skipped — the WAL chain behind it is still
	// on disk precisely because the compaction never got to delete it.
	state := newWALState()
	var snapSeq uint64
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		st, err := readSnapshot(snapPath(ledgerDir, snapSeqs[i]))
		if err == nil {
			state, snapSeq = st, snapSeqs[i]
			break
		}
	}

	applyEvent := func(payload []byte) error {
		var e event
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Errorf("store: undecodable WAL event: %w", err)
		}
		return state.apply(&e)
	}

	// Replay the chain: snap-N holds everything before wal-N, and each
	// wal-K was sealed exactly when wal-K+1 was opened, so ascending order
	// reproduces the original event order.
	activeSeq := uint64(1)
	if n := len(walSeqs); n > 0 {
		activeSeq = walSeqs[n-1]
	}
	for _, seq := range walSeqs {
		if seq < snapSeq || seq == activeSeq {
			continue // active segment replays via openWAL below
		}
		if err := replayFile(walPath(ledgerDir, seq), applyEvent); err != nil {
			return fail(err)
		}
	}
	fsyncHist := metrics.NewHistogram(fsyncBuckets())
	w, err := openWAL(walPath(ledgerDir, activeSeq), cfg.NoSync, applyEvent)
	if err != nil {
		return fail(err)
	}
	w.fsync = fsyncHist

	// In-flight reservations died with the old process; their release may
	// have reached a client, so count them as spent for good.
	for id, p := range state.Pending {
		l := state.Ledgers[p.Dataset]
		l.Spent += p.Epsilon
		state.Ledgers[p.Dataset] = l
		delete(state.Pending, id)
	}
	state.Releases = pruneReleases(state.Releases, cfg.MaxReleases)

	if !cfg.NoSync {
		if err := syncDir(ledgerDir); err != nil {
			w.close()
			return fail(err)
		}
	}
	return &Store{cfg: cfg, ledgerDir: ledgerDir, datasets: ds, unlock: unlock, wal: w, seq: activeSeq, state: state, fsyncHist: fsyncHist}, nil
}

// Close waits for any background compaction and closes the active WAL.
// Pending appends are already durable (each append fsyncs), so Close is
// about releasing file handles, not about flushing.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.compactWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.wal.close()
	s.unlock()
	return err
}

// Datasets returns the on-disk dataset store sharing this store's root.
func (s *Store) Datasets() *Datasets { return s.datasets }

// SetMaxReleases raises the recorded-release retention bound (it never
// lowers it). The serving layer calls this so the journal retains at least
// as many releases as its cache can replay.
func (s *Store) SetMaxReleases(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.cfg.MaxReleases {
		s.cfg.MaxReleases = n
	}
}

// Grant journals a (re)grant of a dataset's total budget.
func (s *Store) Grant(dataset string, total float64) error {
	return s.append(&event{Op: "grant", Dataset: dataset, Total: total})
}

// Reserve journals ε set aside for one in-flight release and returns the
// reservation id to later Commit or Refund. Once Reserve returns, a crash
// counts the ε as spent until the id is settled.
func (s *Store) Reserve(dataset string, epsilon float64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.state.NextID
	if err := s.appendLocked(&event{Op: "resv", Dataset: dataset, Epsilon: epsilon, ID: id}); err != nil {
		return 0, err
	}
	return id, nil
}

// Commit journals that a reservation's release happened: its ε is spent.
func (s *Store) Commit(id uint64) error {
	return s.append(&event{Op: "commit", ID: id})
}

// Refund journals that a reservation's query failed before releasing
// anything: its ε returns to the pool.
func (s *Store) Refund(id uint64) error {
	return s.append(&event{Op: "refund", ID: id})
}

// Release journals one recorded DP release so it can replay after a
// restart. payload is opaque to the store and returned byte-identically.
func (s *Store) Release(key string, payload []byte) error {
	return s.append(&event{Op: "rel", Key: key, Payload: json.RawMessage(payload)})
}

// AppendDelta journals one dataset append advancing the named dataset to
// micro-generation version. payload is opaque to the store (the serving
// layer's append-request encoding) and comes back byte-identically from
// DeltasFor. Journal the delta before mutating any in-memory dataset state:
// the disk must know about the generation before anything serves it.
func (s *Store) AppendDelta(dataset string, version uint64, payload []byte) error {
	return s.append(&event{Op: "delta", Dataset: dataset, ID: version, Payload: json.RawMessage(payload)})
}

// DropDeltas journals that every delta of the named dataset with version at
// or below upTo is superseded by a materialized on-disk version and forgets
// them. Dropping is what keeps the journal bounded under sustained appends.
func (s *Store) DropDeltas(dataset string, upTo uint64) error {
	return s.append(&event{Op: "deltadrop", Dataset: dataset, ID: upTo})
}

// DeltasFor returns the retained deltas of one dataset in journal (and
// therefore version) order. At boot the serving layer replays those newer
// than the dataset's materialized version to reconstruct its tip.
func (s *Store) DeltasFor(dataset string) []DatasetDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]DatasetDelta(nil), s.state.Deltas[dataset]...)
}

// Ledgers snapshots the durable ledger state per dataset.
func (s *Store) Ledgers() map[string]LedgerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]LedgerState, len(s.state.Ledgers))
	for k, v := range s.state.Ledgers {
		out[k] = v
	}
	return out
}

// Releases returns every recorded release in journal order. A key recorded
// twice (possible after cache eviction) appears twice; the later entry is
// the one a replaying cache should keep.
//
// Beyond cache replay, the retained records are the serving layer's source
// for per-family ε-spend attribution at boot (each payload carries the
// dataset, kind, and ε of the release it journals), which is why the
// retention bound trims oldest-first: attribution degrades to a documented
// lower bound rather than a skewed sample, and the budget ledger — which
// never prunes — stays authoritative for totals.
func (s *Store) Releases() []Release {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Release(nil), s.state.Releases...)
}

func (s *Store) append(e *event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(e)
}

// appendLocked journals the event and then applies it to the mirror, in
// that order: the disk must know before memory acts on it.
func (s *Store) appendLocked(e *event) error {
	if s.closed {
		return errors.New("store: closed")
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return err
	}
	sizeBefore := s.wal.size
	if err := s.wal.append(payload); err != nil {
		return err
	}
	s.walAppends.Add(1)
	s.walBytes.Add(uint64(s.wal.size - sizeBefore))
	if err := s.state.apply(e); err != nil {
		return err
	}
	if s.cfg.CompactBytes > 0 && s.wal.size >= s.cfg.CompactBytes && !s.compacting {
		s.compacting = true
		sealed, snap, newSeq, err := s.rotateLocked()
		if err != nil {
			// Rotation failed (e.g. can't create the next segment): keep
			// appending to the current one and retry on a later append —
			// but count the failure, or a disk that can't rotate would
			// never move the alertable error counter.
			s.compactErrs.Add(1)
			s.compacting = false
			return nil
		}
		s.compactWG.Add(1)
		go func() {
			// Best-effort: a failed snapshot leaves the WAL chain intact
			// and recovery simply replays more log.
			defer s.compactWG.Done()
			s.countCompaction(s.finishCompaction(sealed, snap, newSeq))
			s.mu.Lock()
			s.compacting = false
			s.mu.Unlock()
		}()
	}
	return nil
}

// Compact synchronously rewrites the ledger as one snapshot plus a fresh
// WAL segment. Safe to call at any time, including concurrently with
// appends: the swap to the new segment happens under the store lock, the
// (slow) snapshot write happens outside it. A compaction already in flight
// makes Compact a no-op.
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.compacting || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	sealed, snap, newSeq, err := s.rotateLocked()
	s.mu.Unlock()
	if err == nil {
		err = s.finishCompaction(sealed, snap, newSeq)
	}
	s.countCompaction(err)
	s.mu.Lock()
	s.compacting = false
	s.mu.Unlock()
	return err
}

// rotateLocked (mutex held) seals the active segment by swapping in a
// fresh one and captures the mirror at exactly that boundary: from here
// on, snap-(newSeq) ≡ previous snapshot + sealed segment by construction.
func (s *Store) rotateLocked() (sealed *wal, snap *walState, newSeq uint64, err error) {
	newSeq = s.seq + 1
	next, err := openWAL(walPath(s.ledgerDir, newSeq), s.cfg.NoSync, func([]byte) error {
		return errors.New("store: new WAL segment is not empty")
	})
	if err != nil {
		return nil, nil, 0, err
	}
	next.fsync = s.fsyncHist
	sealed = s.wal
	s.wal = next
	s.seq = newSeq
	// Rotation is the natural point to bound the release mirror: the WAL
	// grows between rotations, so pruning here caps the mirror (and the
	// snapshot about to be written) without touching the hot append path.
	s.state.Releases = pruneReleases(s.state.Releases, s.cfg.MaxReleases)
	return sealed, s.state.clone(), newSeq, nil
}

// countCompaction tallies one compaction outcome into the metrics.
func (s *Store) countCompaction(err error) {
	if err != nil {
		s.compactErrs.Add(1)
	} else {
		s.compactions.Add(1)
	}
}

// finishCompaction persists the snapshot for the rotated boundary, then —
// and only then — drops the segments it supersedes. A crash anywhere in
// between leaves a recoverable chain: the previous snapshot plus every WAL
// segment after it. Runs without the store lock; it touches only the
// sealed segment and snapshot files, never the active WAL.
func (s *Store) finishCompaction(sealed *wal, snap *walState, newSeq uint64) error {
	if err := sealed.close(); err != nil {
		return err
	}
	if !s.cfg.NoSync {
		if err := syncDir(s.ledgerDir); err != nil {
			return err
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	frame, err := encodeRecord(data)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(snapPath(s.ledgerDir, newSeq), frame, s.cfg.NoSync); err != nil {
		return err
	}

	walSeqs, snapSeqs, err := listSegments(s.ledgerDir)
	if err != nil {
		return err
	}
	for _, seq := range walSeqs {
		if seq < newSeq {
			os.Remove(walPath(s.ledgerDir, seq))
		}
	}
	for _, seq := range snapSeqs {
		if seq < newSeq {
			os.Remove(snapPath(s.ledgerDir, seq))
		}
	}
	return nil
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.dat", seq))
}

// listSegments returns the WAL and snapshot sequence numbers present in
// dir, each sorted ascending.
func listSegments(dir string) (walSeqs, snapSeqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(ent.Name(), "wal-%d.log", &seq); err == nil {
			walSeqs = append(walSeqs, seq)
			continue
		}
		if _, err := fmt.Sscanf(ent.Name(), "snap-%d.dat", &seq); err == nil {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })
	return walSeqs, snapSeqs, nil
}

// readSnapshot decodes a snapshot file: exactly one framed record holding
// the marshalled walState. Any damage fails the whole snapshot (snapshots
// are written atomically, so damage means a crashed rename — the previous
// chain is still present).
func readSnapshot(path string) (*walState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := newWALState()
	var decoded bool
	good, err := scanRecords(bytes.NewReader(data), func(payload []byte) error {
		if decoded {
			return errors.New("store: snapshot holds more than one record")
		}
		decoded = true
		return json.Unmarshal(payload, st)
	})
	if err != nil {
		return nil, err
	}
	if !decoded || good != int64(len(data)) {
		return nil, errors.New("store: snapshot incomplete")
	}
	return st, nil
}
