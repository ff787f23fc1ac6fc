// Command recmechd serves differentially private query answers over
// HTTP/JSON: the recursive mechanism behind a dataset registry, a
// privacy-budget accountant, a bounded worker pool, and a release cache
// (see internal/service).
//
// With -data-dir the daemon is durable: the privacy-budget ledger is
// journalled to a write-ahead log before any ε changes hands, recorded
// releases replay after a restart at zero additional ε, and datasets
// uploaded through the admin API persist across restarts. Without it,
// everything lives (and dies) in memory.
//
// Datasets come from the data dir, from startup flags, or from the admin
// API at runtime:
//
//	recmechd -data-dir /var/lib/recmech                # durable, admin-managed
//	recmechd -graph social=graph.txt                   # edge-list graph
//	recmechd -tables med=visits:v.txt,rx:r.txt         # annotated tables
//	recmechd -demo                                     # built-in demo graph
//
// Every table of one -tables dataset shares a participant universe, so the
// same annotation variable in two files means the same participant.
// Flag-loaded datasets are registered in memory each boot and are not
// written to the data dir; use PUT /v1/datasets/{name} to persist one.
//
// Endpoints (v2 is the compile/execute lifecycle; v1 remains wire-compatible
// over the same core):
//
//	POST   /v2/query            {"dataset","kind","query"|"k"|pattern…,"epsilon"}
//	POST   /v2/prepare          same body; compiles/warms the plan, spends zero ε
//	POST   /v2/advise           same body + "targetError","tail"; Theorem 1 accuracy at zero ε (needs -expose-accuracy)
//	POST   /v2/jobs             {"queries":[…]} async batch, atomic ε reservation
//	GET    /v2/jobs             list jobs (sorted by id)
//	GET    /v2/jobs/{id}        per-item status and results
//	DELETE /v2/jobs/{id}        cancel; un-started items refunded
//	POST   /v1/query            single query (shim over the v2 core)
//	GET    /v1/datasets
//	PUT    /v1/datasets/{name}  {"kind":"graph","graph":…} | {"kind":"relational","tables":{…}}
//	DELETE /v1/datasets/{name}
//	GET    /v1/budget/{dataset}
//	GET    /v1/stats                  service-wide counters (JSON), incl. accuracy aggregates
//	GET    /v1/datasets/{name}/stats  per-dataset counters, ε spend attribution, burn rate, budget TTL
//	GET    /v1/traces                 recent per-query traces (newest first)
//	GET    /v1/traces/{id}            one trace's full span tree
//	GET    /metrics                   Prometheus text format
//	GET    /healthz
//
// Every fresh compile (and every async job item) records a span tree; the
// X-Recmech-Trace-Id response header and the access log's trace field name
// it. -trace-sample additionally traces 1 in N warm queries,
// -slow-query-threshold dumps the span tree of any slower query to stderr,
// and -debug-addr serves net/http/pprof on a second, ideally private,
// listener.
//
// The daemon writes one structured access-log line per request to stderr
// (method, path, dataset, ε, status, duration, budget outcome, trace ID);
// -log-format selects "text" (default) or "json". See API.md for the full
// HTTP reference and OPERATIONS.md for the operator runbook, including
// which metrics to alert on and how to diagnose a slow query.
//
// Example session:
//
//	recmechd -data-dir ./data -budget 5 -expose-accuracy &
//	curl -s -X PUT localhost:8377/v1/datasets/demo \
//	     -d '{"kind":"graph","graph":"0 1\n1 2\n0 2\n"}'
//	curl -s -X POST localhost:8377/v2/prepare \
//	     -d '{"dataset":"demo","kind":"triangles"}'
//	curl -s -X POST localhost:8377/v2/advise \
//	     -d '{"dataset":"demo","kind":"triangles","epsilon":0.5,"targetError":50}'
//	curl -s -X POST localhost:8377/v2/query \
//	     -d '{"dataset":"demo","kind":"triangles","epsilon":0.5}'
//	curl -s -X POST localhost:8377/v2/jobs \
//	     -d '{"queries":[{"dataset":"demo","kind":"triangles","epsilon":0.2},
//	                     {"dataset":"demo","kind":"kstars","k":2,"epsilon":0.2}]}'
//	curl -s localhost:8377/v2/jobs/job-00000001
//	curl -s localhost:8377/v1/budget/demo
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// queries. A SIGKILL is safe too: every spend is journalled before it
// applies, so a restart can only under-count the remaining budget, never
// over-grant it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/krel"
	"recmech/internal/noise"
	"recmech/internal/query"
	"recmech/internal/service"
	"recmech/internal/store"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var graphs, tableSets repeated
	flag.Var(&graphs, "graph", "NAME=FILE edge-list graph dataset (repeatable)")
	flag.Var(&tableSets, "tables", "NAME=TBL:FILE[,TBL:FILE…] relational dataset (repeatable)")
	var (
		addr       = flag.String("addr", ":8377", "listen address")
		dataDir    = flag.String("data-dir", "", "durable store directory: budget WAL, recorded releases, uploaded datasets (empty = in-memory)")
		budget     = flag.Float64("budget", 10, "total privacy budget ε per dataset")
		epsilon    = flag.Float64("epsilon", 0.5, "default per-query ε when a request omits it")
		maxEps     = flag.Float64("max-epsilon", 0, "per-query ε ceiling (0 = only the dataset budget caps)")
		workers    = flag.Int("workers", 0, "max concurrent mechanism runs (0 = GOMAXPROCS)")
		compilePar = flag.Int("compile-parallelism", 0, "shared compute-pool workers for fresh compiles: enumeration shards and H/G ladder waves; never changes results, only wall-clock (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "base RNG seed for the noise streams")
		demo       = flag.Bool("demo", false, "also register a built-in 200-node random graph as \"demo\"")
		drainFor   = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		planCache  = flag.Int("plan-cache", 0, "max compiled query plans kept hot (0 = default 512)")
		maxUpload  = flag.Int64("max-upload-bytes", 0, "dataset upload body limit in bytes; larger uploads get a 413 (0 = default 64 MiB)")
		maxBatch   = flag.Int("max-batch", 0, "max queries per /v2/jobs batch (0 = default 64)")
		maxJobs    = flag.Int("max-jobs", 0, "max active jobs at once and finished jobs retained (0 = default 1024)")
		logFormat  = flag.String("log-format", "text", "access-log line format: \"text\" or \"json\" (one line per request, to stderr)")
		traceEvery = flag.Int("trace-sample", 0, "additionally trace 1 in N warm (plan-cached) queries; fresh compiles and job items are always traced (0 = off)")
		slowQuery  = flag.Duration("slow-query-threshold", 0, "log the full span tree of any traced query slower than this to stderr (0 = off)")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this second listener (keep it private; empty = off)")
		exposeAcc  = flag.Bool("expose-accuracy", false, "answer tenant-facing accuracy questions (POST /v2/advise, the prepare accuracy block); the Theorem 1 bound is computed from the sensitive data — see DESIGN.md before enabling")
		spendWin   = flag.Duration("spend-window", 0, "sliding window for the ε burn-rate and budget-TTL forecasts (0 = default 1h)")
		estThresh  = flag.Int("estimate-threshold", 0, "graph size in edges at which mode \"auto\" compiles through the sampling estimator instead of exact enumeration (0 = default 500000, negative = never auto-sample)")
		estSamples = flag.Int("estimate-samples", 0, "estimator sample budget when a sampled request omits one (0 = default 20000)")
		deltaKeep  = flag.Int("delta-keep-window", 0, "journalled appends per dataset before the delta chain is folded into a full re-materialization (0 = default 64)")
	)
	flag.Parse()

	accessLog, err := service.NewAccessLogger(os.Stderr, *logFormat)
	if err != nil {
		fail(err)
	}

	cfg := service.Config{
		DatasetBudget:      *budget,
		DefaultEpsilon:     *epsilon,
		MaxEpsilon:         *maxEps,
		Workers:            *workers,
		CompileParallelism: *compilePar,
		Seed:               *seed,
		PlanEntries:        *planCache,
		MaxUploadBytes:     *maxUpload,
		MaxBatchItems:      *maxBatch,
		MaxJobs:            *maxJobs,
		TraceSampleEvery:   *traceEvery,
		ExposeAccuracy:     *exposeAcc,
		SpendRateWindow:    *spendWin,
		EstimateThreshold:  *estThresh,
		EstimateSamples:    *estSamples,
		DeltaKeepWindow:    *deltaKeep,
	}
	var svc *service.Service
	if *dataDir != "" {
		st, err := store.Open(store.Config{Dir: *dataDir})
		if err != nil {
			fail(err)
		}
		defer st.Close()
		var warns []error
		svc, warns = service.NewWithStore(cfg, st)
		for _, w := range warns {
			log.Printf("warning: %v", w)
		}
		for _, d := range svc.Datasets() {
			log.Printf("dataset %q: %s, restored from %s", d.Name, d.Kind, *dataDir)
		}
	} else {
		svc = service.New(cfg)
	}

	for _, spec := range graphs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("bad -graph %q, want NAME=FILE", spec))
		}
		g, err := loadGraph(path)
		if err != nil {
			fail(fmt.Errorf("-graph %s: %w", name, err))
		}
		if err := svc.AddGraph(name, g); err != nil {
			fail(fmt.Errorf("-graph %s: %w", name, err))
		}
		log.Printf("dataset %q: graph, %d nodes, %d edges, budget ε=%g", name, g.NumNodes(), g.NumEdges(), *budget)
	}
	for _, spec := range tableSets {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("bad -tables %q, want NAME=TBL:FILE[,TBL:FILE…]", spec))
		}
		u := boolexpr.NewUniverse()
		db := query.NewDatabase()
		for _, ent := range strings.Split(rest, ",") {
			tbl, path, ok := strings.Cut(ent, ":")
			if !ok {
				fail(fmt.Errorf("bad -tables entry %q, want TBL:FILE", ent))
			}
			rel, err := loadTable(path, u)
			if err != nil {
				fail(fmt.Errorf("-tables %s, table %s: %w", name, tbl, err))
			}
			db.Register(tbl, rel)
		}
		if err := svc.AddRelational(name, u, db); err != nil {
			fail(fmt.Errorf("-tables %s: %w", name, err))
		}
		log.Printf("dataset %q: relational, tables %v, budget ε=%g", name, db.Names(), *budget)
	}
	if *demo {
		g := graph.RandomAverageDegree(noise.NewRand(*seed), 200, 6)
		if err := svc.AddGraph("demo", g); err != nil {
			fail(err)
		}
		log.Printf("dataset \"demo\": random graph, %d nodes, %d edges, budget ε=%g", g.NumNodes(), g.NumEdges(), *budget)
	}
	// A durable daemon may legitimately boot empty: datasets arrive at
	// runtime through PUT /v1/datasets/{name}.
	if len(svc.Datasets()) == 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "recmechd: no datasets; pass -graph, -tables, -demo, or -data-dir")
		flag.Usage()
		os.Exit(2)
	}

	if *slowQuery > 0 {
		svc.Tracer().SetSlowQueryLog(*slowQuery, os.Stderr)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.WithAccessLog(service.NewHandler(svc), accessLog),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	if *debugAddr != "" {
		// pprof gets its own mux on its own listener: the profiling
		// endpoints expose internals (and can burn CPU on demand), so they
		// never ride the public mux or the global http.DefaultServeMux.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", netpprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		dbgSrv := &http.Server{Addr: *debugAddr, Handler: dbg, ReadHeaderTimeout: 5 * time.Second}
		go func() { errc <- dbgSrv.ListenAndServe() }()
		defer dbgSrv.Close()
		log.Printf("recmechd debug (pprof) listening on %s", *debugAddr)
	}
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("recmechd listening on %s", *addr)

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
		log.Printf("recmechd shutting down (draining up to %v)…", *drainFor)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

func loadTable(path string, u *boolexpr.Universe) (*krel.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return query.LoadTable(f, u)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "recmechd:", err)
	os.Exit(1)
}
