package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// reqInfo carries per-request facts through the context to whoever
// installed it: the dataset the request touched, the ε involved, what
// happened to the privacy budget, the compile mode that served it, and the
// ID of the trace it recorded. WithAccessLog installs it for the access
// log; a traced handler or a job item installs one when its context has
// none, to read the trace ID back. The facts ride here rather than on
// Response, whose JSON is the durable release journal's replay payload and
// must not grow per-request metadata. One goroutine fills and then reads
// a slot, so the fields need no synchronization.
type reqInfo struct {
	dataset string
	epsilon float64
	outcome string
	mode    string
	traceID string
}

type reqInfoKey struct{}

// reqInfoOf returns ctx's request-info slot, or nil when none is installed.
func reqInfoOf(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// withReqInfo returns ctx's request-info slot, installing an empty one
// when ctx has none.
func withReqInfo(ctx context.Context) (context.Context, *reqInfo) {
	if ri := reqInfoOf(ctx); ri != nil {
		return ctx, ri
	}
	ri := &reqInfo{}
	return context.WithValue(ctx, reqInfoKey{}, ri), ri
}

// annotate records request facts for the access log. A no-op when no
// access-log middleware wraps the handler.
func annotate(r *http.Request, dataset string, epsilon float64, outcome string) {
	if ri := reqInfoOf(r.Context()); ri != nil {
		ri.dataset, ri.epsilon, ri.outcome = dataset, epsilon, outcome
	}
}

// budgetOutcome classifies what a query did to the privacy budget, for the
// access log's "outcome" field: "spent" (fresh release, ε committed),
// "replayed" (recorded release or coalesced flight, zero ε), "rejected"
// (budget exhausted, zero ε), "refunded" (canceled mid-flight, reservation
// returned), or "none" (failed before any ε moved).
func budgetOutcome(cached bool, err error) string {
	switch {
	case err == nil && cached:
		return "replayed"
	case err == nil:
		return "spent"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "refunded"
	case errors.Is(err, ErrBudgetExhausted):
		return "rejected"
	default:
		return "none"
	}
}

// AccessEntry is one structured access-log record: exactly what an
// operator needs to account for a request after the fact — who asked what
// of which dataset, what it cost, and how it ended.
type AccessEntry struct {
	Time       string  `json:"time"` // RFC 3339, millisecond precision
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"durationMs"`
	Bytes      int64   `json:"bytes"` // response body bytes written
	Dataset    string  `json:"dataset,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	// Outcome is the budget outcome: spent, replayed, rejected, refunded,
	// reserved (job admission), prepared (plan warm, zero ε), advised
	// (accuracy question, zero ε), or none.
	Outcome string `json:"outcome,omitempty"`
	// Mode is the resolved compile tier ("exact" or "sampled") for query
	// requests — the auto-resolution outcome, so the log attributes each
	// answer to the tier that produced it.
	Mode string `json:"mode,omitempty"`
	// TraceID names the span tree this request recorded, when it was traced
	// (fresh compiles always are; see GET /v1/traces/{id}).
	TraceID string `json:"traceId,omitempty"`
	Remote  string `json:"remote,omitempty"`
}

// AccessLogger writes one line per HTTP request, either as a JSON object
// (format "json") or a human-oriented text line (format "text"). Writes
// are serialized under a mutex so concurrent requests never interleave
// mid-line. Construct with NewAccessLogger and wrap a handler with
// WithAccessLog.
type AccessLogger struct {
	mu   sync.Mutex
	w    io.Writer
	json bool
	now  func() time.Time // injectable for tests
}

// NewAccessLogger returns a logger writing format "json" or "text" lines
// to w.
func NewAccessLogger(w io.Writer, format string) (*AccessLogger, error) {
	switch format {
	case "json", "text":
		return &AccessLogger{w: w, json: format == "json", now: time.Now}, nil
	default:
		return nil, fmt.Errorf(`service: access-log format must be "json" or "text", got %q`, format)
	}
}

func (l *AccessLogger) log(e AccessEntry) {
	var line []byte
	if l.json {
		line, _ = json.Marshal(e) // AccessEntry has no unmarshalable fields
		line = append(line, '\n')
	} else {
		// Request-derived strings (path, dataset) are quoted so an encoded
		// newline or control character in a URL cannot forge a log line;
		// JSON mode gets the same protection from the encoder.
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s %s %d %.1fms %dB", e.Time, e.Method, sanitize(e.Path), e.Status, e.DurationMS, e.Bytes)
		if e.Dataset != "" {
			fmt.Fprintf(&b, " dataset=%s", sanitize(e.Dataset))
		}
		if e.Epsilon != 0 {
			fmt.Fprintf(&b, " eps=%g", e.Epsilon)
		}
		if e.Outcome != "" {
			fmt.Fprintf(&b, " outcome=%s", e.Outcome)
		}
		if e.Mode != "" {
			fmt.Fprintf(&b, " mode=%s", e.Mode)
		}
		if e.TraceID != "" {
			fmt.Fprintf(&b, " trace=%s", sanitize(e.TraceID))
		}
		if e.Remote != "" {
			fmt.Fprintf(&b, " remote=%s", sanitize(e.Remote))
		}
		b.WriteByte('\n')
		line = []byte(b.String())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(line)
}

// sanitize makes a request-derived string safe for one text log line:
// anything containing whitespace-breaking or control characters is
// rendered Go-quoted.
func sanitize(s string) string {
	if strings.IndexFunc(s, func(r rune) bool { return r < 0x20 || r == 0x7f || r == ' ' }) < 0 {
		return s
	}
	return fmt.Sprintf("%q", s)
}

// WithAccessLog wraps h so every request emits one access-log line after
// it completes. The wrapper installs the request-info slot the service
// fills in (dataset, ε, budget outcome, mode, trace ID), so it belongs
// outside NewHandler's handler, closest to the server.
func WithAccessLog(h http.Handler, l *AccessLogger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := l.now()
		ctx, ri := withReqInfo(r.Context())
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r.WithContext(ctx))
		l.log(AccessEntry{
			Time:       start.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     rec.statusOr200(),
			DurationMS: float64(l.now().Sub(start)) / float64(time.Millisecond),
			Bytes:      rec.bytes,
			Dataset:    ri.dataset,
			Epsilon:    ri.epsilon,
			Outcome:    ri.outcome,
			Mode:       ri.mode,
			TraceID:    ri.traceID,
			Remote:     r.RemoteAddr,
		})
	})
}

// statusRecorder captures the status code and body size a handler wrote,
// for the access log and the HTTP metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int // 0 until WriteHeader; implicit 200 on first Write
	bytes  int64
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusRecorder) statusOr200() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}
