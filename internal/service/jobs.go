package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Job lifecycle states. A job is terminal in done, failed, or canceled.
//
//	queued ──→ running ──→ done      (every item done)
//	   │           │   └──→ failed   (≥ 1 item failed, none pending)
//	   └───────────┴──────→ canceled (DELETE /v2/jobs/{id})
const (
	JobStateQueued   = "queued"
	JobStateRunning  = "running"
	JobStateDone     = "done"
	JobStateFailed   = "failed"
	JobStateCanceled = "canceled"
)

// Per-item states within a job.
const (
	ItemStatePending  = "pending"
	ItemStateRunning  = "running"
	ItemStateDone     = "done"     // released (or replayed); its ε is committed or was never needed
	ItemStateFailed   = "failed"   // execution failed; its ε was refunded
	ItemStateCanceled = "canceled" // never started (or aborted by cancel); its ε was refunded
)

// JobInfo is the public snapshot of one async batch job.
type JobInfo struct {
	ID    string        `json:"id"`
	State string        `json:"state"`
	Items []JobItemInfo `json:"items"`
}

// JobItemInfo is the public snapshot of one query within a job.
type JobItemInfo struct {
	Index   int     `json:"index"`
	Dataset string  `json:"dataset"`
	Kind    string  `json:"kind"`
	Epsilon float64 `json:"epsilon"`
	State   string  `json:"state"`
	// TraceID names the span tree recorded for this item's execution (every
	// job item is traced, replays included); fetch it at
	// GET /v1/traces/{id}. Empty until the item has run.
	TraceID string `json:"traceId,omitempty"`
	// Result is set once the item is done; Error once it failed or was
	// canceled.
	Result *Response `json:"result,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// job is the internal mutable state; jobItem fields are guarded by job.mu.
type job struct {
	id string

	mu     sync.Mutex
	state  string
	items  []*jobItem
	cancel context.CancelFunc

	done chan struct{} // closed when the runner exits, whatever the outcome
}

type jobItem struct {
	req     Request // normalized at submission
	resv    *Reservation
	state   string
	resp    Response
	err     string
	traceID string
}

func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *job) snapshotLocked() JobInfo {
	info := JobInfo{ID: j.id, State: j.state, Items: make([]JobItemInfo, len(j.items))}
	for i, it := range j.items {
		ii := JobItemInfo{
			Index:   i,
			Dataset: it.req.Dataset,
			Kind:    it.req.Kind,
			Epsilon: it.req.Epsilon,
			State:   it.state,
			TraceID: it.traceID,
			Error:   it.err,
		}
		if it.state == ItemStateDone {
			resp := it.resp
			ii.Result = &resp
		}
		info.Items[i] = ii
	}
	return info
}

// terminal reports whether the job can no longer change.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobStateDone, JobStateFailed, JobStateCanceled:
		return true
	}
	return false
}

// jobTable holds every retained job. IDs are zero-padded so lexicographic
// order equals submission order, which keeps GET /v2/jobs deterministic.
type jobTable struct {
	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // insertion order, for retention eviction
	seq    uint64
	max    int
	active int // queued/running jobs; admission is O(1) against this
}

func newJobTable(max int) *jobTable {
	if max < 1 {
		max = 1
	}
	return &jobTable{jobs: make(map[string]*job), max: max}
}

// add registers a new queued job and evicts the oldest finished jobs beyond
// the retention bound. Active (non-terminal) jobs are never evicted;
// instead admission fails with ErrJobsBusy once max jobs are active —
// every queued job holds a goroutine and its batch's ε reservations, so an
// unbounded backlog would let one client exhaust memory through 202s.
func (t *jobTable) add(items []*jobItem) (*job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active >= t.max {
		return nil, failf(ErrJobsBusy, "%d jobs active (limit %d); retry when some finish", t.active, t.max)
	}
	t.active++
	t.seq++
	j := &job{
		id:    fmt.Sprintf("job-%08d", t.seq),
		state: JobStateQueued,
		items: items,
		done:  make(chan struct{}),
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	for len(t.jobs) > t.max {
		evicted := false
		for i, id := range t.order {
			if old, ok := t.jobs[id]; ok && old.terminal() {
				delete(t.jobs, id)
				t.order = append(t.order[:i:i], t.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	return j, nil
}

// noteTerminal records that one job reached a terminal state. Called
// exactly once per job, by whichever of the runner or CancelJob performs
// the transition.
func (t *jobTable) noteTerminal() {
	t.mu.Lock()
	t.active--
	t.mu.Unlock()
}

// activeCount reports the jobs currently queued or running.
func (t *jobTable) activeCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// list returns the retained jobs sorted by id (= submission order).
func (t *jobTable) list() []*job {
	t.mu.Lock()
	ids := make([]string, 0, len(t.jobs))
	for id := range t.jobs {
		ids = append(ids, id)
	}
	out := make([]*job, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, t.jobs[id])
	}
	t.mu.Unlock()
	return out
}

// SubmitJob validates a batch of queries, atomically reserves the entire
// batch's ε (all-or-nothing: one insufficient ledger, malformed query, or
// unknown dataset rejects the whole batch with nothing spent), and starts an
// async job executing the items in order. The returned snapshot carries the
// job id to poll with JobStatus.
//
// Execution is per-item from there: each release commits its own ε as it
// happens, a failed item refunds only its own ε (later items still run),
// and CancelJob refunds every item that has not started.
func (s *Service) SubmitJob(items []Request) (JobInfo, error) {
	if len(items) == 0 {
		return JobInfo{}, badRequestf("a job needs at least one query")
	}
	if len(items) > s.cfg.MaxBatchItems {
		return JobInfo{}, badRequestf("at most %d queries per job, got %d", s.cfg.MaxBatchItems, len(items))
	}
	reserve := make([]ReserveItem, len(items))
	jitems := make([]*jobItem, len(items))
	for i := range items {
		req := items[i]
		if err := req.normalize(s.cfg); err != nil {
			return JobInfo{}, itemError(i, err)
		}
		if _, err := s.reg.Get(req.Dataset); err != nil {
			return JobInfo{}, itemError(i, err)
		}
		reserve[i] = ReserveItem{Dataset: req.Dataset, Epsilon: req.Epsilon}
		jitems[i] = &jobItem{req: req, state: ItemStatePending}
	}
	resvs, err := s.acct.ReserveMany(reserve)
	if err != nil {
		return JobInfo{}, err
	}
	for i, r := range resvs {
		jitems[i].resv = r
	}
	j, err := s.jobs.add(jitems)
	if err != nil {
		for _, r := range resvs {
			r.Refund()
		}
		s.met.jobsRejected.Inc()
		return JobInfo{}, err
	}
	s.met.jobsSubmitted.Inc()
	ctx, cancel := context.WithCancel(context.Background())
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	go s.runJob(ctx, j)
	return j.snapshot(), nil
}

// runJob executes a job's items in submission order on the service's worker
// pool. The job context — not any HTTP request's — governs cancellation.
func (s *Service) runJob(ctx context.Context, j *job) {
	defer close(j.done)
	j.mu.Lock()
	if j.state == JobStateQueued {
		j.state = JobStateRunning
	}
	cancel := j.cancel
	j.mu.Unlock()
	defer cancel()

	failed := false
	for i := range j.items {
		j.mu.Lock()
		it := j.items[i]
		if j.state == JobStateCanceled || it.state != ItemStatePending {
			j.mu.Unlock()
			continue
		}
		it.state = ItemStateRunning
		resv := it.resv
		it.resv = nil // the runner owns settlement now; cancel must not refund it
		req := it.req
		j.mu.Unlock()

		// Every job item is traced (forceTrace), replays included: a batch
		// runs detached from any HTTP request, so the per-item trace ID in
		// the job snapshot is the only after-the-fact handle on what each
		// item actually did.
		ictx, ri := withReqInfo(ctx)
		resp, err := s.do(ictx, &req, resv, true)

		j.mu.Lock()
		it.traceID = ri.traceID
		switch {
		case err == nil:
			it.state = ItemStateDone
			it.resp = resp
		case errors.Is(err, context.Canceled):
			it.state = ItemStateCanceled
			it.err = err.Error()
		default:
			it.state = ItemStateFailed
			it.err = err.Error()
			failed = true
		}
		j.mu.Unlock()
	}

	j.mu.Lock()
	terminalized := false
	if j.state != JobStateCanceled {
		if failed {
			j.state = JobStateFailed
		} else {
			j.state = JobStateDone
		}
		terminalized = true // otherwise CancelJob performed the transition
	}
	j.mu.Unlock()
	if terminalized {
		s.jobs.noteTerminal()
		if failed {
			s.met.jobsFailed.Inc()
		} else {
			s.met.jobsDone.Inc()
		}
	}
}

// itemError names the failing item in a per-item validation failure: its
// index goes after the failure's category text ("bad request: ",
// "invalid compile mode: "), or first when the reason has none, and the
// typed error class is kept (400 stays 400, 404 stays 404).
func itemError(i int, err error) error {
	var e *Error
	if !errors.As(err, &e) {
		return err
	}
	category := strings.TrimPrefix(e.sentinel.Error(), "service: ") + ": "
	rest, ok := strings.CutPrefix(e.reason, category)
	if !ok {
		category = ""
	}
	return &Error{sentinel: e.sentinel, reason: fmt.Sprintf("%squery[%d]: %s", category, i, rest)}
}

// JobStatus snapshots a job by id.
func (s *Service) JobStatus(id string) (JobInfo, error) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobInfo{}, failf(ErrUnknownJob, "unknown job %q", id)
	}
	return j.snapshot(), nil
}

// Jobs lists every retained job, sorted by id (submission order), so the
// listing is stable for tests and diffing.
func (s *Service) Jobs() []JobInfo {
	js := s.jobs.list()
	out := make([]JobInfo, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// CancelJob cancels a queued or running job: every item that has not
// started is refunded immediately and marked canceled, and the item in
// flight (if any) is interrupted through its context — aborting refunds it
// too; if it completes first, its release stands and its ε stays spent.
// Canceling a terminal job fails with ErrJobFinished.
func (s *Service) CancelJob(id string) (JobInfo, error) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobInfo{}, failf(ErrUnknownJob, "unknown job %q", id)
	}
	j.mu.Lock()
	switch j.state {
	case JobStateDone, JobStateFailed, JobStateCanceled:
		state := j.state
		j.mu.Unlock()
		return JobInfo{}, failf(ErrJobFinished, "job %q already finished (%s)", id, state)
	}
	j.state = JobStateCanceled
	for _, it := range j.items {
		if it.state == ItemStatePending {
			it.state = ItemStateCanceled
			it.err = "job canceled before this query started"
			if it.resv != nil {
				it.resv.Refund()
				it.resv = nil
			}
		}
	}
	cancel := j.cancel
	snap := j.snapshotLocked()
	j.mu.Unlock()
	s.jobs.noteTerminal()
	s.met.jobsCanceled.Inc()
	if cancel != nil {
		cancel()
	}
	return snap, nil
}

// WaitJob blocks until the job's runner has exited (terminal state) or ctx
// is done. Exposed for callers and tests that need a completion barrier;
// the HTTP API polls JobStatus instead.
func (s *Service) WaitJob(ctx context.Context, id string) (JobInfo, error) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobInfo{}, failf(ErrUnknownJob, "unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
}
