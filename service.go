package recmech

// The serving layer (internal/service, served by cmd/recmechd) re-exported
// for importers: a concurrent DP query service combining a dataset
// registry, a per-dataset privacy-budget accountant with atomic
// reserve/commit/refund, a bounded-worker query executor, and a release
// cache that replays recorded answers at zero additional ε.

import (
	"io"
	"net/http"

	"recmech/internal/service"
	"recmech/internal/store"
	"recmech/internal/trace"
)

// Service types, usable by importers of this package.
type (
	// Service is the concurrent DP query service (registry + accountant +
	// executor + release cache).
	Service = service.Service
	// ServiceConfig tunes a Service; the zero value is usable.
	ServiceConfig = service.Config
	// ServiceRequest is one DP query against a registered dataset.
	ServiceRequest = service.Request
	// ServiceResponse is one DP answer (only released values, never the
	// true answer).
	ServiceResponse = service.Response
	// DatasetInfo publicly describes a registered dataset.
	DatasetInfo = service.DatasetInfo
	// BudgetStatus snapshots a dataset's ε ledger.
	BudgetStatus = service.BudgetStatus
	// Store is the durable layer under a Service: an fsync'd write-ahead
	// log plus compacted snapshots for the ε ledger and recorded releases,
	// and an on-disk versioned dataset store.
	Store = store.Store
	// StoreConfig tunes a Store; only Dir is required.
	StoreConfig = store.Config
	// UploadRequest is the body of PUT /v1/datasets/{name}.
	UploadRequest = service.UploadRequest
	// AppendRequest is the body of PATCH /v1/datasets/{name}: a dataset
	// delta (new graph edges, or rows for relational tables) that advances
	// the dataset one micro-generation and re-warms its cached plans
	// incrementally instead of recompiling from scratch.
	AppendRequest = service.AppendRequest
	// DeltaCompileStats aggregates the incremental-compile telemetry (the
	// "deltaCompiles" section of ServiceStats).
	DeltaCompileStats = service.DeltaCompileStats
	// BudgetError is the typed rejection of an over-budget query; it
	// matches ErrBudgetExhausted under errors.Is.
	BudgetError = service.BudgetError
	// BatchRequest is the body of POST /v2/jobs: queries admitted
	// atomically against the budget and executed asynchronously.
	BatchRequest = service.BatchRequest
	// JobInfo snapshots one async batch job (state plus per-item results).
	JobInfo = service.JobInfo
	// JobItemInfo snapshots one query within a job.
	JobItemInfo = service.JobItemInfo
	// PrepareInfo reports a POST /v2/prepare outcome (plan warmed, zero ε).
	PrepareInfo = service.PrepareInfo
	// AdviseRequest is the body of POST /v2/advise: a workload plus the
	// accuracy question (error at ε, and optionally ε for a target error).
	AdviseRequest = service.AdviseRequest
	// AdviseInfo answers an accuracy question at zero ε (Theorem 1 bound).
	AdviseInfo = service.AdviseInfo
	// AccuracyInfo is one evaluated Theorem 1 utility profile.
	AccuracyInfo = service.AccuracyInfo
	// EpsilonAdvice is the inverse answer: the smallest ε meeting a target
	// error, with the profile achieved there.
	EpsilonAdvice = service.EpsilonAdvice
	// AccuracyFamilyStats aggregates per-release accuracy telemetry for one
	// workload family (the "accuracy" section of ServiceStats).
	AccuracyFamilyStats = service.AccuracyFamilyStats
	// EstimateInfo is a sampled plan's estimator contract (method, samples,
	// concentration bound — never the estimate value itself).
	EstimateInfo = service.EstimateInfo
	// EstimatorStats aggregates estimator-tier releases (the "estimator"
	// section of ServiceStats).
	EstimatorStats = service.EstimatorStats
	// ServiceStats is the service-wide observability snapshot returned by
	// (*Service).Stats and GET /v1/stats.
	ServiceStats = service.ServiceStats
	// DatasetStats is the per-dataset observability snapshot returned by
	// (*Service).DatasetStats and GET /v1/datasets/{name}/stats.
	DatasetStats = service.DatasetStats
	// AccessLogger writes one structured line (JSON or text) per HTTP
	// request; construct with NewAccessLogger, apply with WithAccessLog.
	AccessLogger = service.AccessLogger
	// AccessEntry is one access-log record.
	AccessEntry = service.AccessEntry
	// TraceSummary summarizes one retained per-query trace, as listed by
	// (*Service).Traces and GET /v1/traces.
	TraceSummary = trace.Summary
	// TraceData is one trace's full span tree, as returned by
	// (*Service).Trace and GET /v1/traces/{id}.
	TraceData = trace.TraceData
	// TraceSpanNode is one node of a TraceData span tree.
	TraceSpanNode = trace.SpanNode
	// CompileStats aggregates fresh plan-compile profiles (the "compiles"
	// section of ServiceStats).
	CompileStats = service.CompileStats
)

// Sentinel errors of the serving layer, for errors.Is checks.
var (
	// ErrBudgetExhausted rejects a query whose ε cannot be reserved.
	ErrBudgetExhausted = service.ErrBudgetExhausted
	// ErrUnknownDataset rejects a query against an unregistered dataset.
	ErrUnknownDataset = service.ErrUnknownDataset
	// ErrServiceBadRequest rejects a malformed or inapplicable request.
	ErrServiceBadRequest = service.ErrBadRequest
	// ErrUnknownJob rejects a lookup or cancellation of an unretained job.
	ErrUnknownJob = service.ErrUnknownJob
	// ErrJobFinished rejects cancellation of a job already terminal.
	ErrJobFinished = service.ErrJobFinished
	// ErrRequestTooLarge rejects an oversized request body (HTTP 413).
	ErrRequestTooLarge = service.ErrRequestTooLarge
	// ErrUnknownTrace rejects a lookup of an unretained trace ID.
	ErrUnknownTrace = service.ErrUnknownTrace
	// ErrInvalidTail rejects an accuracy request whose tail parameter c is
	// not positive and finite.
	ErrInvalidTail = service.ErrInvalidTail
	// ErrInvalidMode rejects a bad compile-mode selection (unknown mode, a
	// sample budget without sampled mode or out of range, or sampled mode
	// on a SQL workload).
	ErrInvalidMode = service.ErrInvalidMode
	// ErrAccuracyDisabled rejects tenant-facing accuracy requests on a
	// service without the ExposeAccuracy opt-in (the Theorem 1 bound is
	// data-dependent; see DESIGN.md).
	ErrAccuracyDisabled = service.ErrAccuracyDisabled
)

// Job lifecycle states reported by JobInfo.State.
const (
	JobStateQueued   = service.JobStateQueued
	JobStateRunning  = service.JobStateRunning
	JobStateDone     = service.JobStateDone
	JobStateFailed   = service.JobStateFailed
	JobStateCanceled = service.JobStateCanceled
)

// Query kinds accepted by ServiceRequest.Kind.
const (
	KindSQL        = service.KindSQL
	KindTriangles  = service.KindTriangles
	KindKStars     = service.KindKStars
	KindKTriangles = service.KindKTriangles
	KindPattern    = service.KindPattern
)

// Compile modes accepted by ServiceRequest.Mode: exhaustive enumeration
// ("exact", the default at any dataset size) or the sampling estimator
// ("sampled", opted into per request).
const (
	ModeExact   = service.ModeExact
	ModeSampled = service.ModeSampled
)

// NewService returns an empty in-memory DP query service; register datasets
// with AddGraph / AddRelational, then answer with Query.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenStore opens (creating if needed) a durable store rooted at dir with
// default tuning, recovering the budget ledger to the last complete
// journal record.
func OpenStore(dir string) (*Store, error) { return store.Open(store.Config{Dir: dir}) }

// OpenStoreConfig is OpenStore with full tuning options (compaction
// threshold, release retention, fsync policy).
func OpenStoreConfig(cfg StoreConfig) (*Store, error) { return store.Open(cfg) }

// NewServiceWithStore returns a DP query service whose budget ledger,
// recorded releases, and uploaded datasets survive restarts — including a
// SIGKILL: every ε transition is journalled before it applies, so recovery
// can only shrink the remaining budget, never re-grant spent ε. The second
// result carries per-dataset load warnings (the service always comes up).
func NewServiceWithStore(cfg ServiceConfig, st *Store) (*Service, []error) {
	return service.NewWithStore(cfg, st)
}

// NewServiceHandler adapts a Service to the HTTP/JSON API cmd/recmechd
// serves: the v2 compile/execute lifecycle (POST /v2/query, POST
// /v2/prepare, the zero-ε accuracy endpoint POST /v2/advise, the async
// batch endpoints POST/GET/DELETE /v2/jobs…), the
// wire-compatible v1 shims (POST /v1/query, GET /v1/datasets, GET
// /v1/budget/{dataset}, GET /healthz), the mutating admin endpoints PUT
// and DELETE /v1/datasets/{name}, and the observability endpoints (GET
// /metrics in Prometheus text format, GET /v1/stats, GET
// /v1/datasets/{name}/stats, and the per-query traces at GET /v1/traces and
// GET /v1/traces/{id}) — expose the handler accordingly. See API.md for the
// full reference.
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// NewAccessLogger returns a logger writing one structured access-log line
// per request to w, in format "json" or "text".
func NewAccessLogger(w io.Writer, format string) (*AccessLogger, error) {
	return service.NewAccessLogger(w, format)
}

// WithAccessLog wraps an HTTP handler (typically NewServiceHandler's) so
// every request emits one access-log line: method, path, dataset, ε,
// status, duration, and the privacy-budget outcome.
func WithAccessLog(h http.Handler, l *AccessLogger) http.Handler {
	return service.WithAccessLog(h, l)
}
