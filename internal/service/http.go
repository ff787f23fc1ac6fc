package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"recmech/internal/metrics"
)

// maxBodyBytes bounds a query/prepare/jobs body; queries are short texts
// (a maximal batch of maximal queries still fits comfortably).
const maxBodyBytes = 1 << 20

// StatusClientClosedRequest is the de-facto (nginx) status for a request
// whose client hung up before the answer was ready. net/http has no
// constant for it.
const StatusClientClosedRequest = 499

// UploadRequest is the body of PUT /v1/datasets/{name}: an edge-list graph
// or a set of annotated tables, carried as text in the formats the loaders
// accept (see graph.ReadEdgeList and query.LoadTable).
type UploadRequest struct {
	Kind   string            `json:"kind"`             // "graph" or "relational"
	Graph  string            `json:"graph,omitempty"`  // kind "graph": edge-list text
	Tables map[string]string `json:"tables,omitempty"` // kind "relational": table name → table text
}

// BatchRequest is the body of POST /v2/jobs: a batch of queries admitted
// atomically against the privacy budget and executed asynchronously.
type BatchRequest struct {
	Queries []Request `json:"queries"`
}

// NewHandler adapts a Service to HTTP/JSON.
//
// v2 — the compile/execute lifecycle:
//
//	POST   /v2/query            Request → Response (plan-cached execution)
//	POST   /v2/prepare          Request → PrepareInfo (warm a plan, zero ε)
//	POST   /v2/advise           AdviseRequest → AdviseInfo (Theorem 1 accuracy, zero ε; needs -expose-accuracy)
//	POST   /v2/jobs             BatchRequest → 202 + JobInfo (atomic ε reservation)
//	GET    /v2/jobs             → {"jobs": [JobInfo…]} (sorted by id)
//	GET    /v2/jobs/{id}        → JobInfo
//	DELETE /v2/jobs/{id}        → JobInfo (canceled; un-started items refunded)
//
// v1 — wire-compatible shims over the same core:
//
//	POST   /v1/query            Request  → Response
//	GET    /v1/datasets         → {"datasets": [DatasetInfo…]} (sorted by name)
//	PUT    /v1/datasets/{name}  UploadRequest → DatasetInfo
//	PATCH  /v1/datasets/{name}  AppendRequest → DatasetInfo (delta append; see AppendDataset)
//	DELETE /v1/datasets/{name}  → 204
//	GET    /v1/budget/{dataset} → BudgetStatus
//	GET    /healthz             → {"status": "ok"}
//
// Observability:
//
//	GET    /metrics                   Prometheus text format (MetricsRegistry)
//	GET    /v1/stats                  → ServiceStats (service-wide JSON snapshot)
//	GET    /v1/datasets/{name}/stats  → DatasetStats (per-dataset counters, ε rate)
//	GET    /v1/traces                 → {"traces": [trace.Summary…]} (newest first)
//	GET    /v1/traces/{id}            → trace.TraceData (full span tree)
//
// A traced query or prepare (fresh compiles always are; see DESIGN.md
// "Per-query tracing") answers with an X-Recmech-Trace-Id header naming its
// span tree, on error responses too.
//
// Every request is counted in recmech_http_requests_total and timed in
// recmech_http_request_duration_seconds; wrap the returned handler with
// WithAccessLog for structured per-request logging (traced requests carry
// their trace ID there as well).
//
// Errors come back as {"error": {"code", "message"}} with the status
// mirroring the typed error: 429 for an exhausted budget, 404 for an
// unknown dataset or job, 409 for canceling a finished job, 413 for an
// oversized body, 403 for accuracy requests without the -expose-accuracy
// opt-in, 400 for a bad request (code "invalid_tail" for an out-of-range
// tail parameter, "invalid_mode" for a bad compile-mode selection), 499/504
// for a canceled or timed out request, 500 otherwise.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	// POST /v1/query and POST /v2/query are the same core: v1 was already
	// a single-query execute, and the plan layer slots in underneath it.
	query := func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := decodeJSON(w, r, maxBodyBytes, &req); err != nil {
			writeError(w, err)
			return
		}
		resp, err := traced(w, r, s.Query, req)
		if err != nil {
			// Query normalizes a by-value copy, so a defaulted ε is not
			// reflected in req — substitute it here, or a rejected
			// default-ε query would log eps=0 and the operator auditing
			// the 429 could not see what was actually asked.
			eps := req.Epsilon
			if eps == 0 {
				eps = s.cfg.DefaultEpsilon
			}
			annotate(r, canonName(req.Dataset), eps, budgetOutcome(false, err))
			writeError(w, err)
			return
		}
		annotate(r, resp.Dataset, resp.Epsilon, budgetOutcome(resp.Cached, nil))
		writeJSON(w, http.StatusOK, resp)
	}
	mux.HandleFunc("POST /v1/query", query)
	mux.HandleFunc("POST /v2/query", query)
	mux.HandleFunc("POST /v2/prepare", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := decodeJSON(w, r, maxBodyBytes, &req); err != nil {
			writeError(w, err)
			return
		}
		info, err := traced(w, r, s.Prepare, req)
		if err != nil {
			annotate(r, canonName(req.Dataset), 0, "none")
			writeError(w, err)
			return
		}
		annotate(r, info.Dataset, 0, "prepared")
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v2/advise", func(w http.ResponseWriter, r *http.Request) {
		var req AdviseRequest
		if err := decodeJSON(w, r, maxBodyBytes, &req); err != nil {
			writeError(w, err)
			return
		}
		info, err := traced(w, r, s.Advise, req)
		if err != nil {
			annotate(r, canonName(req.Dataset), 0, "none")
			writeError(w, err)
			return
		}
		// ε stays 0 in the access log: advice never touches the budget.
		annotate(r, info.Dataset, 0, "advised")
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		var batch BatchRequest
		if err := decodeJSON(w, r, maxBodyBytes, &batch); err != nil {
			writeError(w, err)
			return
		}
		info, err := s.SubmitJob(batch.Queries)
		if err != nil {
			annotate(r, "", 0, budgetOutcome(false, err))
			writeError(w, err)
			return
		}
		var total float64
		for _, it := range info.Items {
			total += it.Epsilon
		}
		annotate(r, "", total, "reserved")
		writeJSON(w, http.StatusAccepted, info)
	})
	mux.HandleFunc("GET /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
	})
	mux.HandleFunc("GET /v2/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.JobStatus(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v2/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.CancelJob(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"datasets": s.Datasets()})
	})
	mux.HandleFunc("PUT /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		var up UploadRequest
		if err := decodeJSON(w, r, s.cfg.MaxUploadBytes, &up); err != nil {
			writeError(w, err)
			return
		}
		name := r.PathValue("name")
		var (
			info DatasetInfo
			err  error
		)
		switch up.Kind {
		case "graph":
			info, err = s.UploadGraph(name, []byte(up.Graph))
		case "relational":
			tables := make(map[string][]byte, len(up.Tables))
			for tbl, text := range up.Tables {
				tables[tbl] = []byte(text)
			}
			info, err = s.UploadTables(name, tables)
		default:
			err = badRequestf("kind must be \"graph\" or \"relational\", got %q", up.Kind)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("PATCH /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		var ap AppendRequest
		if err := decodeJSON(w, r, s.cfg.MaxUploadBytes, &ap); err != nil {
			writeError(w, err)
			return
		}
		info, err := s.AppendDataset(r.PathValue("name"), ap)
		if err != nil {
			writeError(w, err)
			return
		}
		annotate(r, info.Name, 0, "appended")
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.DeleteDataset(r.PathValue("name")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/budget/{dataset}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Budget(r.PathValue("dataset"))
		if err != nil {
			writeError(w, err)
			return
		}
		annotate(r, st.Dataset, 0, "")
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"traces": s.Traces()})
	})
	mux.HandleFunc("GET /v1/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		td, err := s.Trace(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, td)
	})
	mux.HandleFunc("GET /v1/datasets/{name}/stats", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.DatasetStats(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		annotate(r, st.Dataset, 0, "")
		writeJSON(w, http.StatusOK, st)
	})
	mux.Handle("GET /metrics", metrics.Handler(s.met.reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// The instrumentation wrapper counts and times every request,
	// including unmatched routes (the mux's own 404s).
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		mux.ServeHTTP(rec, r)
		s.met.httpCode(rec.statusOr200()).Inc()
		s.met.httpDur.ObserveSince(start)
	})
}

// traced runs a query, prepare or advise call with a request-info slot on
// its context — the access log's, or a fresh one — and names the trace the
// call recorded, if any, in the X-Recmech-Trace-Id header. The ID travels
// in a header, not the body: a Response's JSON is the durable release
// journal's replay payload, and a per-request ID inside it would replay as
// stale metadata. The header is set before any body is written, so error
// responses carry it too.
func traced[Req, Resp any](w http.ResponseWriter, r *http.Request, call func(context.Context, Req) (Resp, error), req Req) (Resp, error) {
	ctx, ri := withReqInfo(r.Context())
	resp, err := call(ctx, req)
	if ri.traceID != "" {
		w.Header().Set("X-Recmech-Trace-Id", ri.traceID)
	}
	return resp, err
}

// decodeJSON decodes a strict-JSON body bounded by limit. Exceeding the
// limit aborts the read mid-stream and surfaces as a typed 413 rather than
// a generic decode failure, so clients can tell "shrink the upload" apart
// from "fix the JSON".
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return failf(ErrRequestTooLarge, "request body exceeds the %d-byte limit", mbe.Limit)
		}
		return badRequestf("invalid JSON body: %v", err)
	}
	return nil
}

type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Remaining reports the unreserved ε on budget_exhausted errors so a
	// client can lower its ask instead of blindly retrying.
	Remaining *float64 `json:"remaining,omitempty"`
}

// wireFailures maps each failure sentinel to its HTTP status and wire code,
// in match order: the first sentinel errors.Is finds wins, so invalid_tail
// and invalid_mode (whose errors also match ErrBadRequest) come before
// bad_request. An error matching none is a 500 "internal".
var wireFailures = []struct {
	sentinel error
	status   int
	code     string
}{
	{ErrBudgetExhausted, http.StatusTooManyRequests, "budget_exhausted"},
	{ErrUnknownDataset, http.StatusNotFound, "unknown_dataset"},
	{ErrUnknownJob, http.StatusNotFound, "unknown_job"},
	{ErrUnknownTrace, http.StatusNotFound, "unknown_trace"},
	{ErrJobFinished, http.StatusConflict, "job_finished"},
	{ErrJobsBusy, http.StatusTooManyRequests, "too_many_jobs"},
	{ErrRequestTooLarge, http.StatusRequestEntityTooLarge, "request_too_large"},
	{ErrInvalidTail, http.StatusBadRequest, "invalid_tail"},
	{ErrInvalidMode, http.StatusBadRequest, "invalid_mode"},
	{ErrAccuracyDisabled, http.StatusForbidden, "accuracy_disabled"},
	{ErrBadRequest, http.StatusBadRequest, "bad_request"},
	{context.Canceled, StatusClientClosedRequest, "canceled"},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
}

func writeError(w http.ResponseWriter, err error) {
	detail := errorDetail{Code: "internal", Message: err.Error()}
	status := http.StatusInternalServerError
	for _, f := range wireFailures {
		if errors.Is(err, f.sentinel) {
			status, detail.Code = f.status, f.code
			break
		}
	}
	var be *BudgetError
	if errors.As(err, &be) {
		detail.Remaining = &be.Remaining
	}
	writeJSON(w, status, errorBody{Error: detail})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already out; nothing left to do
}
