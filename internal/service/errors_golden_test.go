package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestErrorWireGolden pins the wire form of every failure kind: status,
// code, message and the budget_exhausted remaining ε. Each case drives the
// real handler except the three that no request can provoke
// deterministically (canceled, deadline_exceeded, internal), which call
// writeError directly.
func TestErrorWireGolden(t *testing.T) {
	remaining := func(v float64) *float64 { return &v }
	cases := []struct {
		name   string
		cfg    Config
		setup  func(t *testing.T, svc *Service)
		method string
		path   string
		body   string
		err    error // written with writeError instead of a request

		status    int
		code      string
		message   string
		remaining *float64
	}{
		{
			name:   "budget exhausted",
			cfg:    Config{DatasetBudget: 1},
			method: "POST", path: "/v2/query",
			body:   `{"dataset":"g","kind":"triangles","epsilon":2}`,
			status: http.StatusTooManyRequests, code: "budget_exhausted",
			message:   `service: privacy budget exhausted for dataset "g": requested ε=2, remaining ε=1`,
			remaining: remaining(1),
		},
		{
			name:   "unknown dataset (query)",
			method: "POST", path: "/v2/query",
			body:   `{"dataset":"Nope","kind":"triangles"}`,
			status: http.StatusNotFound, code: "unknown_dataset",
			message: `service: unknown dataset "nope"`,
		},
		{
			name:   "unknown dataset (budget)",
			method: "GET", path: "/v1/budget/Nope",
			status: http.StatusNotFound, code: "unknown_dataset",
			message: `service: unknown dataset "Nope"`,
		},
		{
			name:   "unknown job",
			method: "GET", path: "/v2/jobs/job-9",
			status: http.StatusNotFound, code: "unknown_job",
			message: `service: unknown job "job-9"`,
		},
		{
			name:   "unknown trace",
			method: "GET", path: "/v1/traces/t-1",
			status: http.StatusNotFound, code: "unknown_trace",
			message: `service: unknown trace "t-1"`,
		},
		{
			name: "job finished",
			setup: func(t *testing.T, svc *Service) {
				info, err := svc.SubmitJob([]Request{{Dataset: "g", Kind: KindTriangles}})
				if err != nil {
					t.Fatalf("SubmitJob: %v", err)
				}
				waitJob(t, svc, info.ID)
			},
			method: "DELETE", path: "/v2/jobs/job-00000001",
			status: http.StatusConflict, code: "job_finished",
			message: `service: job "job-00000001" already finished (done)`,
		},
		{
			name: "too many jobs",
			cfg:  Config{MaxJobs: 1},
			setup: func(t *testing.T, svc *Service) {
				// An admitted job with no runner stays active for good.
				if _, err := svc.jobs.add([]*jobItem{{state: ItemStatePending}}); err != nil {
					t.Fatalf("add: %v", err)
				}
			},
			method: "POST", path: "/v2/jobs",
			body:   `{"queries":[{"dataset":"g","kind":"triangles"}]}`,
			status: http.StatusTooManyRequests, code: "too_many_jobs",
			message: `service: 1 jobs active (limit 1); retry when some finish`,
		},
		{
			name:   "request too large",
			method: "POST", path: "/v2/query",
			body:   `{"dataset":"` + strings.Repeat("a", maxBodyBytes) + `"}`,
			status: http.StatusRequestEntityTooLarge, code: "request_too_large",
			message: `service: request body exceeds the 1048576-byte limit`,
		},
		{
			name:   "upload too large",
			cfg:    Config{MaxUploadBytes: 16},
			method: "PUT", path: "/v1/datasets/big",
			body:   `{"kind":"graph","graph":"0 1\n1 2\n"}`,
			status: http.StatusRequestEntityTooLarge, code: "request_too_large",
			message: `service: request body exceeds the 16-byte limit`,
		},
		{
			name:   "invalid tail",
			cfg:    Config{ExposeAccuracy: true},
			method: "POST", path: "/v2/advise",
			body:   `{"dataset":"g","kind":"triangles","tail":-1}`,
			status: http.StatusBadRequest, code: "invalid_tail",
			message: `service: tail parameter must be positive and finite, got -1`,
		},
		{
			name:   "invalid mode",
			method: "POST", path: "/v2/query",
			body:   `{"dataset":"g","kind":"triangles","mode":"fast"}`,
			status: http.StatusBadRequest, code: "invalid_mode",
			message: `service: invalid compile mode: mode must be "auto", "exact" or "sampled", got "fast"`,
		},
		{
			name:   "accuracy disabled",
			method: "POST", path: "/v2/advise",
			body:   `{"dataset":"g","kind":"triangles"}`,
			status: http.StatusForbidden, code: "accuracy_disabled",
			message: `service: accuracy reporting is not enabled on this server (start recmechd with -expose-accuracy; the bound is data-dependent — see DESIGN.md)`,
		},
		{
			name:   "bad request (validation)",
			method: "POST", path: "/v2/query",
			body:   `{"dataset":"g","kind":"triangles","epsilon":-1}`,
			status: http.StatusBadRequest, code: "bad_request",
			message: `service: bad request: epsilon must be positive and finite, got -1`,
		},
		{
			name:   "bad request (JSON)",
			method: "POST", path: "/v2/query",
			body:   `{"dataset":`,
			status: http.StatusBadRequest, code: "bad_request",
			message: `service: bad request: invalid JSON body: unexpected EOF`,
		},
		{
			name:   "bad request (spec)",
			method: "POST", path: "/v2/query",
			body:   `{"dataset":"g","kind":"bogus"}`,
			status: http.StatusBadRequest, code: "bad_request",
			message: `service: bad request: unknown kind "bogus" (one of sql, triangles, kstars, ktriangles, pattern)`,
		},
		{
			name:   "bad request (compile)",
			method: "POST", path: "/v2/query",
			body:   `{"dataset":"g","kind":"sql","query":"SELECT a FROM t"}`,
			status: http.StatusBadRequest, code: "bad_request",
			message: `service: bad request: kind "sql" needs a relational dataset`,
		},
		{
			name:   "bad request (upload kind)",
			method: "PUT", path: "/v1/datasets/x",
			body:   `{"kind":"tree"}`,
			status: http.StatusBadRequest, code: "bad_request",
			message: `service: bad request: kind must be "graph" or "relational", got "tree"`,
		},
		{
			name:   "job item bad request carries its index",
			method: "POST", path: "/v2/jobs",
			body:   `{"queries":[{"dataset":"g","kind":"triangles"},{"dataset":"g","kind":"triangles","epsilon":-1}]}`,
			status: http.StatusBadRequest, code: "bad_request",
			message: `service: bad request: query[1]: epsilon must be positive and finite, got -1`,
		},
		{
			name:   "job item invalid mode keeps its message",
			method: "POST", path: "/v2/jobs",
			body:   `{"queries":[{"dataset":"g","kind":"triangles","mode":"fast"}]}`,
			status: http.StatusBadRequest, code: "invalid_mode",
			message: `service: invalid compile mode: mode must be "auto", "exact" or "sampled", got "fast"`,
		},
		{
			name:   "job item unknown dataset keeps its message",
			method: "POST", path: "/v2/jobs",
			body:   `{"queries":[{"dataset":"g","kind":"triangles"},{"dataset":"nope","kind":"triangles"}]}`,
			status: http.StatusNotFound, code: "unknown_dataset",
			message: `service: unknown dataset "nope"`,
		},
		{
			name:   "canceled",
			err:    context.Canceled,
			status: StatusClientClosedRequest, code: "canceled",
			message: `context canceled`,
		},
		{
			name:   "deadline exceeded",
			err:    context.DeadlineExceeded,
			status: http.StatusGatewayTimeout, code: "deadline_exceeded",
			message: `context deadline exceeded`,
		},
		{
			name:   "internal",
			err:    errors.New("store: disk on fire"),
			status: http.StatusInternalServerError, code: "internal",
			message: `store: disk on fire`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			if tc.err != nil {
				writeError(rec, tc.err)
			} else {
				svc := jobTestService(t, tc.cfg)
				if tc.setup != nil {
					tc.setup(t, svc)
				}
				req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
				NewHandler(svc).ServeHTTP(rec, req)
			}
			if rec.Code != tc.status {
				t.Errorf("status %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			var body map[string]map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("decode %q: %v", rec.Body, err)
			}
			got := body["error"]
			if len(body) != 1 || got == nil {
				t.Fatalf("body %s: want exactly one \"error\" object", rec.Body)
			}
			if got["code"] != tc.code {
				t.Errorf("code %v, want %q", got["code"], tc.code)
			}
			if got["message"] != tc.message {
				t.Errorf("message\n  %q\nwant\n  %q", got["message"], tc.message)
			}
			want := 2
			if tc.remaining != nil {
				want = 3
				if got["remaining"] != *tc.remaining {
					t.Errorf("remaining %v, want %g", got["remaining"], *tc.remaining)
				}
			}
			if len(got) != want {
				t.Errorf("error object %v has %d keys, want %d", got, len(got), want)
			}
		})
	}
}
