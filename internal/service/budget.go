package service

import (
	"math"
	"sync"
	"sync/atomic"
)

// budgetSlack absorbs floating-point dust when comparing a requested ε
// against the remaining budget, so that e.g. twenty reservations of 0.1
// exactly exhaust a budget of 2.0.
const budgetSlack = 1e-9

// Accountant is the per-dataset privacy-budget ledger. Sequential
// composition makes ε additive across releases, so the ledger is a simple
// counter — but concurrent queries must not be able to jointly overdraw it,
// so spending is a two-phase reserve/commit protocol:
//
//	resv, err := acct.Reserve(dataset, eps)   // atomically sets ε aside
//	…run the mechanism…
//	resv.Commit()                             // the release happened: ε is spent
//	resv.Refund()                             // the query failed: ε returns to the pool
//
// Reserve fails with a *BudgetError (matching ErrBudgetExhausted) when the
// unreserved remainder is insufficient; a rejected or refunded query spends
// nothing. All operations are atomic under one mutex. Without a journal,
// ledger operations are nanoseconds next to a mechanism run; with one,
// each transition carries a synced journal append, so the mutex serializes
// spending at the disk's sync rate — a deliberate correctness-first choice
// (durable order equals ledger order). Group commit is the upgrade path if
// ledger throughput ever becomes the bottleneck.
//
// With a BudgetJournal attached (SetJournal), every transition is written
// to the journal *before* it applies in memory, under the same mutex, so
// the durable event order matches the ledger order exactly. The journal's
// failure contract is asymmetric on purpose: a grant or reserve that can't
// be journalled fails outright (handing out unjournalled ε would let a
// restart re-grant it), while a commit or refund that can't be journalled
// still applies in memory — the durable reserve record already covers it
// conservatively, because recovery folds unsettled reservations into spent.
type Accountant struct {
	mu      sync.Mutex
	ledgers map[string]*ledger
	journal BudgetJournal

	// Observability counters (see Counters): reservations created,
	// reservations rejected for insufficient budget, and settlements.
	nReserves, nRejected, nCommits, nRefunds atomic.Uint64
}

// Counters snapshots the accountant's monotone event counters:
// reservations created, reservations rejected for insufficient budget
// (other failures — unknown dataset, bad ε, journal faults — don't
// count), commits, and refunds.
func (a *Accountant) Counters() (reserves, rejected, commits, refunds uint64) {
	return a.nReserves.Load(), a.nRejected.Load(), a.nCommits.Load(), a.nRefunds.Load()
}

// BudgetJournal persists ledger transitions; *store.Store implements it.
// Reserve returns the durable id Commit/Refund settle later.
type BudgetJournal interface {
	Grant(dataset string, total float64) error
	Reserve(dataset string, epsilon float64) (id uint64, err error)
	Commit(id uint64) error
	Refund(id uint64) error
}

type ledger struct {
	total    float64
	spent    float64
	reserved float64
}

func (l *ledger) remaining() float64 { return l.total - l.spent - l.reserved }

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{ledgers: make(map[string]*ledger)}
}

// SetJournal attaches the durable journal. Attach before serving traffic;
// transitions made earlier are not journalled.
func (a *Accountant) SetJournal(j BudgetJournal) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.journal = j
}

// Restore seeds a dataset's ledger from recovered durable state without
// journalling (the journal is where the state came from).
func (a *Accountant) Restore(dataset string, total, spent float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ledgers[dataset] = &ledger{total: total, spent: spent}
}

// Grant sets (or resets) a dataset's total privacy budget. Spent and
// reserved amounts are preserved, so raising a live dataset's budget is
// safe; lowering it below what is already spent just means no further
// reservations succeed.
func (a *Accountant) Grant(dataset string, epsilon float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.journal != nil {
		if err := a.journal.Grant(dataset, epsilon); err != nil {
			return err
		}
	}
	l, ok := a.ledgers[dataset]
	if !ok {
		l = &ledger{}
		a.ledgers[dataset] = l
	}
	l.total = epsilon
	return nil
}

// BudgetStatus is a point-in-time snapshot of one ledger.
type BudgetStatus struct {
	Dataset   string  `json:"dataset"`
	Total     float64 `json:"total"`
	Spent     float64 `json:"spent"`
	Reserved  float64 `json:"reserved"`
	Remaining float64 `json:"remaining"`
}

// Status snapshots a dataset's ledger.
func (a *Accountant) Status(dataset string) (BudgetStatus, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l, ok := a.ledgers[dataset]
	if !ok {
		return BudgetStatus{}, false
	}
	return BudgetStatus{
		Dataset:   dataset,
		Total:     l.total,
		Spent:     l.spent,
		Reserved:  l.reserved,
		Remaining: l.remaining(),
	}, true
}

// Reserve atomically sets aside ε of the dataset's budget, failing with a
// *BudgetError when the unreserved remainder is insufficient. The returned
// reservation must be settled exactly once, by Commit or Refund.
func (a *Accountant) Reserve(dataset string, epsilon float64) (*Reservation, error) {
	// NaN compares false with everything: it would pass both this guard
	// (if written "epsilon <= 0") and the overdraw check below, and one
	// "reserved += NaN" poisons the ledger forever. Reject non-finite ε
	// outright.
	if math.IsNaN(epsilon) || math.IsInf(epsilon, 0) || epsilon <= 0 {
		return nil, badRequestf("reservation ε must be positive and finite, got %g", epsilon)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	l, ok := a.ledgers[dataset]
	if !ok {
		return nil, unknownDataset(dataset)
	}
	if epsilon > l.remaining()+budgetSlack {
		a.nRejected.Add(1)
		return nil, &BudgetError{Dataset: dataset, Requested: epsilon, Remaining: l.remaining()}
	}
	var journalID uint64
	if a.journal != nil {
		// Journal before the in-memory reservation exists: if the append
		// fails, no ε changed hands anywhere. Once it succeeds, a crash
		// before settlement replays this reservation as spent.
		id, err := a.journal.Reserve(dataset, epsilon)
		if err != nil {
			return nil, err
		}
		journalID = id
	}
	l.reserved += epsilon
	a.nReserves.Add(1)
	return &Reservation{acct: a, ledger: l, dataset: dataset, epsilon: epsilon, journalID: journalID}, nil
}

// ReserveItem is one line of a batch reservation: ε against one dataset.
type ReserveItem struct {
	Dataset string
	Epsilon float64
}

// ReserveMany atomically reserves every item or nothing: under one lock it
// validates all items, checks each dataset's unreserved remainder against
// the *sum* the batch asks of it, then creates one reservation per item.
// The first insufficient ledger aborts the whole batch with a *BudgetError
// naming that dataset, and no ε moves anywhere.
//
// Each returned reservation settles independently (per-item commit on
// release, refund on failure or cancellation), which is what gives batch
// jobs all-or-nothing admission with pay-per-item execution.
//
// With a journal attached, items are journalled in order; a journal append
// failing mid-batch refunds the already-journalled items (their durable
// reserve records are settled by refund records) and aborts with no
// in-memory change.
func (a *Accountant) ReserveMany(items []ReserveItem) ([]*Reservation, error) {
	for _, it := range items {
		if math.IsNaN(it.Epsilon) || math.IsInf(it.Epsilon, 0) || it.Epsilon <= 0 {
			return nil, badRequestf("reservation ε must be positive and finite, got %g", it.Epsilon)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Feasibility first, with per-dataset sums, before any state moves.
	asked := make(map[string]float64, len(items))
	for _, it := range items {
		l, ok := a.ledgers[it.Dataset]
		if !ok {
			return nil, unknownDataset(it.Dataset)
		}
		asked[it.Dataset] += it.Epsilon
		if asked[it.Dataset] > l.remaining()+budgetSlack {
			// Count every item of the batch as rejected, keeping the
			// reservations counter's unit (items) consistent across the
			// ok and rejected results: ReserveMany is all-or-nothing, so
			// denial denies all of them.
			a.nRejected.Add(uint64(len(items)))
			return nil, &BudgetError{Dataset: it.Dataset, Requested: asked[it.Dataset], Remaining: l.remaining()}
		}
	}
	resvs := make([]*Reservation, len(items))
	for i, it := range items {
		var journalID uint64
		if a.journal != nil {
			id, err := a.journal.Reserve(it.Dataset, it.Epsilon)
			if err != nil {
				// Unwind the durable records already written; in-memory
				// ledgers have not been touched yet. A refund that itself
				// fails is conservative: recovery folds the unsettled
				// reservation into spent, shrinking (never growing) the
				// recoverable remainder.
				for j := 0; j < i; j++ {
					_ = a.journal.Refund(resvs[j].journalID)
				}
				return nil, err
			}
			journalID = id
		}
		resvs[i] = &Reservation{acct: a, ledger: a.ledgers[it.Dataset], dataset: it.Dataset, epsilon: it.Epsilon, journalID: journalID}
	}
	for _, r := range resvs {
		r.ledger.reserved += r.epsilon
	}
	a.nReserves.Add(uint64(len(resvs)))
	return resvs, nil
}

// Reservation is ε set aside for one in-flight release. Exactly one of
// Commit or Refund must be called; a second settlement panics, because it
// would silently corrupt the ledger.
type Reservation struct {
	acct      *Accountant
	ledger    *ledger
	dataset   string
	epsilon   float64
	journalID uint64
	settled   bool
}

// Epsilon returns the reserved ε.
func (r *Reservation) Epsilon() float64 { return r.epsilon }

// Commit converts the reservation into spent budget: the release happened
// and its ε is gone for good.
func (r *Reservation) Commit() {
	r.settle(true)
}

// Refund returns the reservation to the pool: the query failed before a
// release was produced, so no privacy was consumed.
func (r *Reservation) Refund() {
	r.settle(false)
}

func (r *Reservation) settle(commit bool) {
	r.acct.mu.Lock()
	defer r.acct.mu.Unlock()
	if r.settled {
		panic("service: reservation settled twice")
	}
	if j := r.acct.journal; j != nil && r.journalID != 0 {
		// Settlement journal failures are deliberately swallowed: the
		// durable reserve record already accounts for this ε, and an
		// unsettled reservation recovers as spent — conservative for a
		// commit (exactly right) and for a refund (the pool keeps less
		// than it could, never more).
		if commit {
			_ = j.Commit(r.journalID)
		} else {
			_ = j.Refund(r.journalID)
		}
	}
	r.settled = true
	r.ledger.reserved -= r.epsilon
	if commit {
		r.ledger.spent += r.epsilon
		r.acct.nCommits.Add(1)
	} else {
		r.acct.nRefunds.Add(1)
	}
}
