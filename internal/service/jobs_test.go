package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"recmech/internal/graph"
)

func jobTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.DatasetBudget == 0 {
		cfg.DatasetBudget = 10
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	svc := New(cfg)
	g := graph.New(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {5, 6}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	if err := svc.AddGraph("g", g); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	return svc
}

func waitJob(t testing.TB, svc *Service, id string) JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := svc.WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("WaitJob(%s): %v", id, err)
	}
	return info
}

func TestJobLifecycle(t *testing.T) {
	svc := jobTestService(t, Config{})
	info, err := svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.25},
		{Dataset: "g", Kind: KindTriangles, Privacy: "edge", Epsilon: 0.25},
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if info.ID == "" || (info.State != JobStateQueued && info.State != JobStateRunning) {
		t.Fatalf("submitted job: %+v", info)
	}
	// The whole batch is reserved atomically at submission.
	if st, _ := svc.Budget("g"); st.Reserved+st.Spent < 1.0-1e-9 {
		t.Fatalf("batch not fully reserved at submission: %+v", st)
	}

	final := waitJob(t, svc, info.ID)
	if final.State != JobStateDone {
		t.Fatalf("job state %q, want done: %+v", final.State, final)
	}
	if len(final.Items) != 3 {
		t.Fatalf("items: %+v", final.Items)
	}
	for i, it := range final.Items {
		if it.State != ItemStateDone || it.Result == nil {
			t.Fatalf("item %d not done: %+v", i, it)
		}
		if it.Index != i {
			t.Fatalf("item %d has index %d", i, it.Index)
		}
		if math.IsNaN(it.Result.Value) || math.IsInf(it.Result.Value, 0) {
			t.Fatalf("item %d value not finite: %v", i, it.Result.Value)
		}
	}
	st, _ := svc.Budget("g")
	if math.Abs(st.Spent-1.0) > 1e-9 || st.Reserved != 0 {
		t.Fatalf("ledger after job: %+v", st)
	}

	// Lookup and listing agree; terminal jobs cannot be canceled.
	if got, err := svc.JobStatus(info.ID); err != nil || got.State != JobStateDone {
		t.Fatalf("JobStatus: %+v %v", got, err)
	}
	if _, err := svc.CancelJob(info.ID); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("cancel of done job: %v, want ErrJobFinished", err)
	}
	if _, err := svc.JobStatus("job-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
}

// TestJobDuplicateItemsShareRelease submits a batch containing the same
// query twice: both items are reserved up front (all-or-nothing must not
// depend on execution-time luck), but the second replays the first's
// recorded release and its reservation is refunded.
func TestJobDuplicateItemsShareRelease(t *testing.T) {
	svc := jobTestService(t, Config{Workers: 1})
	info, err := svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5},
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5},
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	final := waitJob(t, svc, info.ID)
	if final.State != JobStateDone {
		t.Fatalf("job state %q: %+v", final.State, final)
	}
	if !final.Items[1].Result.Cached || final.Items[0].Result.Cached {
		t.Fatalf("expected second item to replay: %+v", final.Items)
	}
	if final.Items[0].Result.Value != final.Items[1].Result.Value {
		t.Fatalf("replayed value differs: %+v", final.Items)
	}
	st, _ := svc.Budget("g")
	if math.Abs(st.Spent-0.5) > 1e-9 || st.Reserved != 0 {
		t.Fatalf("duplicate item spent fresh ε: %+v", st)
	}
}

func TestJobAtomicAdmission(t *testing.T) {
	svc := jobTestService(t, Config{DatasetBudget: 1.0, MaxEpsilon: 0.5})

	// The batch sums over the remaining budget: rejected atomically, typed,
	// with nothing spent or reserved.
	_, err := svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.5},
		{Dataset: "g", Kind: KindKStars, K: 3, Epsilon: 0.5},
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget batch: %v, want ErrBudgetExhausted", err)
	}
	st, _ := svc.Budget("g")
	if st.Spent != 0 || st.Reserved != 0 {
		t.Fatalf("rejected batch moved the ledger: %+v", st)
	}

	// Bad item anywhere rejects the whole batch with nothing reserved.
	_, err = svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.25},
		{Dataset: "g", Kind: "median", Epsilon: 0.25},
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad item: %v, want ErrBadRequest", err)
	}
	_, err = svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.25},
		{Dataset: "nope", Kind: KindTriangles, Epsilon: 0.25},
	})
	if !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset item: %v, want ErrUnknownDataset", err)
	}
	// An item over the per-query ε ceiling too, and so is a lone query.
	_, err = svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.25},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.75},
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("item over the ε ceiling: %v, want ErrBadRequest", err)
	}
	if _, err := svc.Query(context.Background(), Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.75}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("query over the ε ceiling: %v, want ErrBadRequest", err)
	}
	if _, err := svc.SubmitJob(nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch: %v, want ErrBadRequest", err)
	}
	st, _ = svc.Budget("g")
	if st.Spent != 0 || st.Reserved != 0 {
		t.Fatalf("rejected batches moved the ledger: %+v", st)
	}

	// An exactly affordable batch is admitted.
	info, err := svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.5},
	})
	if err != nil {
		t.Fatalf("affordable batch: %v", err)
	}
	if final := waitJob(t, svc, info.ID); final.State != JobStateDone {
		t.Fatalf("job: %+v", final)
	}
}

// TestJobActiveCap rejects submissions once MaxJobs jobs are active, with
// the whole batch's reservation rolled back, and admits again after the
// backlog drains.
func TestJobActiveCap(t *testing.T) {
	svc := jobTestService(t, Config{Workers: 1, MaxJobs: 1})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() {
			close(started)
			<-gate
		})
	}
	info, err := svc.SubmitJob([]Request{{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5}})
	if err != nil {
		t.Fatalf("first job: %v", err)
	}
	<-started // the job is active, pinned on the blocked worker

	_, err = svc.SubmitJob([]Request{{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.5}})
	if !errors.Is(err, ErrJobsBusy) {
		t.Fatalf("saturated submit: %v, want ErrJobsBusy", err)
	}
	st, _ := svc.Budget("g")
	if st.Reserved > 0.5+1e-9 {
		t.Fatalf("rejected job kept its reservation: %+v", st)
	}

	close(gate)
	waitJob(t, svc, info.ID)
	if _, err := svc.SubmitJob([]Request{{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.5}}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestJobBatchSizeCap(t *testing.T) {
	svc := jobTestService(t, Config{MaxBatchItems: 2})
	_, err := svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.1},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.1},
		{Dataset: "g", Kind: KindKStars, K: 3, Epsilon: 0.1},
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized batch: %v, want ErrBadRequest", err)
	}
}

// TestJobCancelRefundsUnstarted pins the batch refund semantics: cancel a
// running job and every item that has not started — plus the one in flight,
// which aborts through the job context — refunds its ε, leaving only ε of
// completed releases spent (none here).
func TestJobCancelRefundsUnstarted(t *testing.T) {
	svc := jobTestService(t, Config{Workers: 1})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() {
			close(started)
			<-gate
		})
	}

	info, err := svc.SubmitJob([]Request{
		{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5},
		{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.5},
		{Dataset: "g", Kind: KindKStars, K: 3, Epsilon: 0.5},
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	<-started // item 0 occupies the only worker, items 1-2 pending

	canceled, err := svc.CancelJob(info.ID)
	if err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	if canceled.State != JobStateCanceled {
		t.Fatalf("state after cancel: %+v", canceled)
	}
	for _, i := range []int{1, 2} {
		if canceled.Items[i].State != ItemStateCanceled {
			t.Fatalf("pending item %d not canceled: %+v", i, canceled.Items[i])
		}
	}
	// Un-started items refund immediately, before the in-flight one settles.
	st, _ := svc.Budget("g")
	if st.Reserved > 0.5+1e-9 || st.Spent != 0 {
		t.Fatalf("pending items not refunded at cancel: %+v", st)
	}

	close(gate) // release item 0; its context is canceled, so it aborts
	final := waitJob(t, svc, info.ID)
	if final.State != JobStateCanceled {
		t.Fatalf("final state: %+v", final)
	}
	if final.Items[0].State != ItemStateCanceled {
		t.Fatalf("in-flight item after cancel: %+v", final.Items[0])
	}
	st, _ = svc.Budget("g")
	if st.Spent != 0 || st.Reserved != 0 {
		t.Fatalf("canceled job spent ε: %+v", st)
	}
	if n := svc.cache.Len(); n != 0 {
		t.Fatalf("canceled job recorded %d releases", n)
	}
	// Cancel is not retryable once terminal.
	if _, err := svc.CancelJob(info.ID); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("second cancel: %v, want ErrJobFinished", err)
	}
}

// TestJobsListingDeterministic submits several jobs and checks the listing
// comes back in submission (id) order every time.
func TestJobsListingDeterministic(t *testing.T) {
	svc := jobTestService(t, Config{})
	var ids []string
	for i := 0; i < 5; i++ {
		info, err := svc.SubmitJob([]Request{{Dataset: "g", Kind: KindKStars, K: 2 + i%3, Epsilon: 0.01}})
		if err != nil {
			t.Fatalf("SubmitJob %d: %v", i, err)
		}
		ids = append(ids, info.ID)
		waitJob(t, svc, info.ID)
	}
	for round := 0; round < 3; round++ {
		list := svc.Jobs()
		if len(list) != len(ids) {
			t.Fatalf("listing has %d jobs, want %d", len(list), len(ids))
		}
		for i, j := range list {
			if j.ID != ids[i] {
				t.Fatalf("listing out of order at %d: %q, want %q", i, j.ID, ids[i])
			}
		}
	}
}

// TestJobRetentionEvictsOldestFinished bounds the job table: beyond MaxJobs
// the oldest finished jobs disappear from the listing (active jobs are kept).
func TestJobRetentionEvictsOldestFinished(t *testing.T) {
	svc := jobTestService(t, Config{MaxJobs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		info, err := svc.SubmitJob([]Request{{Dataset: "g", Kind: KindKStars, K: 2 + i%3, Epsilon: 0.01}})
		if err != nil {
			t.Fatalf("SubmitJob %d: %v", i, err)
		}
		waitJob(t, svc, info.ID)
		ids = append(ids, info.ID)
	}
	list := svc.Jobs()
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(list))
	}
	if list[0].ID != ids[2] || list[1].ID != ids[3] {
		t.Fatalf("wrong survivors: %q %q, want %q %q", list[0].ID, list[1].ID, ids[2], ids[3])
	}
	if _, err := svc.JobStatus(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("evicted job still resolves: %v", err)
	}
}

func TestReserveManyAtomic(t *testing.T) {
	a := NewAccountant()
	if err := a.Grant("a", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := a.Grant("b", 0.4); err != nil {
		t.Fatal(err)
	}

	// Sum over one dataset's remainder rejects the whole batch.
	_, err := a.ReserveMany([]ReserveItem{
		{Dataset: "a", Epsilon: 0.5},
		{Dataset: "b", Epsilon: 0.3},
		{Dataset: "b", Epsilon: 0.3}, // b total 0.6 > 0.4
	})
	var be *BudgetError
	if !errors.As(err, &be) || be.Dataset != "b" {
		t.Fatalf("ReserveMany: %v, want BudgetError on b", err)
	}
	for _, name := range []string{"a", "b"} {
		if st, _ := a.Status(name); st.Reserved != 0 || st.Spent != 0 {
			t.Fatalf("failed batch left state on %s: %+v", name, st)
		}
	}

	// Unknown dataset rejects the whole batch.
	if _, err := a.ReserveMany([]ReserveItem{
		{Dataset: "a", Epsilon: 0.1},
		{Dataset: "ghost", Epsilon: 0.1},
	}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}

	// A feasible batch reserves every item; items settle independently.
	resvs, err := a.ReserveMany([]ReserveItem{
		{Dataset: "a", Epsilon: 0.5},
		{Dataset: "a", Epsilon: 0.5},
		{Dataset: "b", Epsilon: 0.4},
	})
	if err != nil {
		t.Fatalf("feasible batch: %v", err)
	}
	resvs[0].Commit()
	resvs[1].Refund()
	resvs[2].Commit()
	if st, _ := a.Status("a"); math.Abs(st.Spent-0.5) > 1e-9 || st.Reserved != 0 {
		t.Fatalf("a after settle: %+v", st)
	}
	if st, _ := a.Status("b"); math.Abs(st.Spent-0.4) > 1e-9 || st.Reserved != 0 {
		t.Fatalf("b after settle: %+v", st)
	}

	// Invalid ε anywhere rejects everything before any ledger is touched.
	if _, err := a.ReserveMany([]ReserveItem{
		{Dataset: "a", Epsilon: 0.1},
		{Dataset: "a", Epsilon: math.NaN()},
	}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("NaN item: %v", err)
	}
}

// TestReserveManyConcurrentNoOverdraw hammers batch and single reservations
// against one small ledger; whatever interleaving happens, the ledger can
// never go negative and must balance exactly at the end.
func TestReserveManyConcurrentNoOverdraw(t *testing.T) {
	a := NewAccountant()
	if err := a.Grant("d", 2.0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := 0.0
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				resvs, err := a.ReserveMany([]ReserveItem{
					{Dataset: "d", Epsilon: 0.125},
					{Dataset: "d", Epsilon: 0.125},
				})
				if err != nil {
					return
				}
				resvs[0].Commit()
				resvs[1].Refund()
				mu.Lock()
				committed += 0.125
				mu.Unlock()
			} else {
				r, err := a.Reserve("d", 0.125)
				if err != nil {
					return
				}
				r.Commit()
				mu.Lock()
				committed += 0.125
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	st, _ := a.Status("d")
	if st.Reserved != 0 {
		t.Fatalf("reservations leaked: %+v", st)
	}
	if math.Abs(st.Spent-committed) > 1e-9 {
		t.Fatalf("spent %v, committed %v", st.Spent, committed)
	}
	if st.Spent > 2.0+1e-9 {
		t.Fatalf("overdrawn: %+v", st)
	}
}

// TestQueryCancelWhileQueuedRefunds is the satellite guarantee for single
// queries: a context-canceled query — here stuck behind a busy worker pool —
// refunds its ε reservation and never records a release.
func TestQueryCancelWhileQueuedRefunds(t *testing.T) {
	svc := jobTestService(t, Config{Workers: 1})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() {
			close(started)
			<-gate
		})
	}

	occupantDone := make(chan error, 1)
	go func() {
		_, err := svc.Query(context.Background(), Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5})
		occupantDone <- err
	}()
	<-started // the only worker is now held

	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, err := svc.Query(ctx, Request{Dataset: "g", Kind: KindKStars, K: 2, Epsilon: 0.5})
		queuedDone <- err
	}()
	// The queued query has reserved ε and is waiting for the worker; give it
	// a moment to reach the semaphore, then hang up.
	for {
		st, _ := svc.Budget("g")
		if st.Reserved >= 1.0-1e-9 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queuedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: %v, want context.Canceled", err)
	}
	st, _ := svc.Budget("g")
	if st.Reserved > 0.5+1e-9 {
		t.Fatalf("canceled query kept its reservation: %+v", st)
	}

	close(gate)
	if err := <-occupantDone; err != nil {
		t.Fatalf("occupant query: %v", err)
	}
	st, _ = svc.Budget("g")
	if math.Abs(st.Spent-0.5) > 1e-9 || st.Reserved != 0 {
		t.Fatalf("final ledger: %+v", st)
	}
	if n := svc.cache.Len(); n != 1 {
		t.Fatalf("release cache has %d entries, want 1 (the occupant's)", n)
	}
}

// TestWaiterSurvivesLeaderCancellation pins the coalescing fix: when the
// flight leader's client hangs up mid-query, a waiter with a live context
// must not inherit the leader's cancellation — it retries, leads its own
// flight, and gets an answer.
func TestWaiterSurvivesLeaderCancellation(t *testing.T) {
	svc := jobTestService(t, Config{Workers: 1})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() {
			close(started)
			<-gate
		})
	}
	req := Request{Dataset: "g", Kind: KindTriangles, Epsilon: 0.5}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.Query(leaderCtx, req)
		leaderDone <- err
	}()
	<-started // leader owns the flight and the only worker

	waiterDone := make(chan error, 1)
	var waiterResp Response
	go func() {
		var err error
		waiterResp, err = svc.Query(context.Background(), req)
		waiterDone <- err
	}()
	// Let the waiter join the leader's flight, then hang up the leader.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	close(gate)

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", err)
	}
	if waiterResp.Cached {
		t.Fatalf("waiter response claims a replay that never happened: %+v", waiterResp)
	}
	st, _ := svc.Budget("g")
	if math.Abs(st.Spent-0.5) > 1e-9 || st.Reserved != 0 {
		t.Fatalf("ledger after leader cancel + waiter retry: %+v", st)
	}
}

// TestQueryCancellationHammer storms the service with a mix of canceled and
// live queries (run with -race); afterwards the ledger must balance exactly
// against the successful releases and hold nothing in reservation.
func TestQueryCancellationHammer(t *testing.T) {
	svc := jobTestService(t, Config{Workers: 2, DatasetBudget: 1e9})
	const n = 64
	var wg sync.WaitGroup
	var mu sync.Mutex
	successes := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 != 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(context.Background())
				if i%3 == 1 {
					cancel() // canceled before it even starts
				} else {
					defer cancel()
					go func() {
						time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
						cancel()
					}()
				}
			}
			// Distinct queries: no coalescing, each success spends fresh ε.
			req := Request{Dataset: "g", Kind: KindKStars, K: 2 + i%9, Epsilon: 0.25}
			resp, err := svc.Query(ctx, req)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("query %d: %v", i, err)
				}
				return
			}
			mu.Lock()
			if !resp.Cached {
				successes++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	st, _ := svc.Budget("g")
	if st.Reserved != 0 {
		t.Fatalf("reservations leaked: %+v", st)
	}
	// Releases recorded == fresh successes; canceled queries recorded none.
	// (Distinct k values mean successes may replay earlier successes, so
	// compare spend against the cache's record count.)
	if got := 0.25 * float64(svc.cache.Len()); math.Abs(st.Spent-got) > 1e-9 {
		t.Fatalf("spent %v but %d releases recorded", st.Spent, svc.cache.Len())
	}
	if svc.cache.Len() > successes {
		t.Fatalf("%d releases recorded for %d fresh successes", svc.cache.Len(), successes)
	}
}
