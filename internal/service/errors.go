// Package service is the serving layer of the repository: a concurrent
// differentially private query service over the recursive mechanism. It
// combines a dataset registry (named sensitive graphs and relational
// catalogues), a privacy-budget accountant (a per-dataset ε ledger with
// atomic reserve/commit/refund semantics), a query executor (a bounded
// worker pool running the SQL-like front end and the built-in subgraph-count
// workloads through internal/mechanism), and a release cache that replays a
// previously released noisy answer instead of spending fresh budget —
// privacy-sound because republishing a recorded ε-DP release costs zero ε.
//
// cmd/recmechd exposes the service over HTTP/JSON; NewHandler builds the
// http.Handler it serves.
package service

import (
	"errors"
	"fmt"
)

// Sentinel errors for errors.Is checks across the package boundary. The
// concrete errors (*Error and *BudgetError) carry more context but always
// match their sentinel.
var (
	// ErrBudgetExhausted rejects a query whose ε cannot be reserved from
	// the dataset's remaining privacy budget. No budget is spent by a
	// rejected query.
	ErrBudgetExhausted = errors.New("service: privacy budget exhausted")
	// ErrUnknownDataset rejects a query against an unregistered dataset.
	ErrUnknownDataset = errors.New("service: unknown dataset")
	// ErrBadRequest rejects a malformed or inapplicable request (unknown
	// kind, parse failure, wrong dataset kind, invalid ε, …).
	ErrBadRequest = errors.New("service: bad request")
	// ErrUnknownJob rejects a lookup or cancellation of a job id that is
	// not retained (never existed, or evicted past the retention bound).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobFinished rejects cancellation of a job already in a terminal
	// state — there is nothing left to cancel or refund.
	ErrJobFinished = errors.New("service: job already finished")
	// ErrRequestTooLarge rejects a request body over the configured size
	// limit before buffering it.
	ErrRequestTooLarge = errors.New("service: request body too large")
	// ErrJobsBusy rejects a job submission while the maximum number of
	// jobs are already active; retry once some finish.
	ErrJobsBusy = errors.New("service: too many active jobs")
	// ErrUnknownTrace rejects a lookup of a trace ID that is not retained
	// (never recorded, or evicted from the bounded ring of recent traces).
	ErrUnknownTrace = errors.New("service: unknown trace")
	// ErrInvalidTail rejects an accuracy request whose tail parameter c is
	// not positive and finite — the Theorem 1 bound is undefined there
	// (the mechanism layer panics on c ≤ 0; the service validates at the
	// boundary so a request parameter can never reach that panic).
	ErrInvalidTail = errors.New("service: invalid tail parameter")
	// ErrInvalidMode rejects a compile-mode selection that is not exact or
	// sampled, a sample budget without sampled mode or out of range, or a
	// sampled mode aimed at a workload that only compiles exactly (SQL).
	ErrInvalidMode = errors.New("service: invalid compile mode")
	// ErrAccuracyDisabled rejects a tenant-facing accuracy request
	// (/v2/advise, the prepare accuracy block) on a server that has not
	// opted in: the Theorem 1 bound is computed from the sensitive data,
	// so exposing it per query leaks outside the DP guarantee. Start the
	// daemon with -expose-accuracy to enable; see DESIGN.md.
	ErrAccuracyDisabled = errors.New("service: accuracy exposure disabled")
)

// BudgetError is the typed rejection returned when a reservation would
// overdraw a dataset's ε ledger. errors.Is(err, ErrBudgetExhausted) is true.
type BudgetError struct {
	Dataset   string  // ledger the reservation was attempted against
	Requested float64 // ε the query asked for
	Remaining float64 // ε still unreserved at rejection time
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("service: privacy budget exhausted for dataset %q: requested ε=%g, remaining ε=%g",
		e.Dataset, e.Requested, e.Remaining)
}

// Is makes errors.Is(err, ErrBudgetExhausted) succeed.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExhausted }

// Error is every typed failure but an exhausted budget: its sentinel names
// the kind, and its reason is the message after "service: ". Under
// errors.Is it matches its sentinel; ErrInvalidTail and ErrInvalidMode
// failures also match ErrBadRequest, being malformed requests like any
// other. writeError maps the sentinel to an HTTP status and code.
type Error struct {
	sentinel error
	reason   string
}

func (e *Error) Error() string { return "service: " + e.reason }

// Is makes errors.Is succeed for the sentinel (and ErrBadRequest, see Error).
func (e *Error) Is(target error) bool {
	return target == e.sentinel ||
		target == ErrBadRequest && (e.sentinel == ErrInvalidTail || e.sentinel == ErrInvalidMode)
}

// failf returns an *Error of the sentinel's kind with a formatted reason.
func failf(sentinel error, format string, args ...any) error {
	return &Error{sentinel: sentinel, reason: fmt.Sprintf(format, args...)}
}

func unknownDataset(name string) error { return failf(ErrUnknownDataset, "unknown dataset %q", name) }

func badRequestf(format string, args ...any) error {
	return failf(ErrBadRequest, "bad request: "+format, args...)
}

func modeErrorf(format string, args ...any) error {
	return failf(ErrInvalidMode, "invalid compile mode: "+format, args...)
}
