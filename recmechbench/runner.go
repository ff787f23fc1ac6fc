package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"recmech/internal/lp"
	"recmech/internal/plan"
	"recmech/internal/service"
	"recmech/internal/store"
)

// datasetBudget is large enough that no release of any run is refused;
// every other Config field keeps its production default.
const datasetBudget = 1e9

// setupRepeats is how many times a run sets up from an empty data dir;
// setup_s is their median and the last one serves the timed phase.
const setupRepeats = 9

// instance is one production service: a durable store with fsync on, the
// service over it, and the HTTP handler with its access-log middleware.
type instance struct {
	dir string
	st  *store.Store
	svc *service.Service
	h   http.Handler
}

func openInstance(dir string) (*instance, error) {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	svc, warns := service.NewWithStore(service.Config{DatasetBudget: datasetBudget}, st)
	if len(warns) > 0 {
		st.Close()
		return nil, fmt.Errorf("open service: %v", warns[0])
	}
	logger, err := service.NewAccessLogger(io.Discard, "text")
	if err != nil {
		st.Close()
		return nil, err
	}
	return &instance{dir: dir, st: st, svc: svc, h: service.WithAccessLog(service.NewHandler(svc), logger)}, nil
}

func (in *instance) close() {
	in.st.Close()
	os.RemoveAll(in.dir)
}

// serve sends one request through the handler in memory and times the
// handler alone: building the request and reading the answer are the
// client's work.
func (in *instance) serve(method, path string, body []byte) (*httptest.ResponseRecorder, time.Time, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	in.h.ServeHTTP(rec, req)
	return rec, t0, time.Since(t0)
}

// result is one run's outcome.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	diag      map[string]any         // printed on its own line before the result
	mirror    *mirror                // the traced run's spans and counters
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is everything a run takes besides the workload.
type runConfig struct {
	workdir  string // scratch root for the runs' data dirs
	traceDir string // where the traced run writes its spans
	setups   int
	traced   bool
}

// run executes one measured run of w: set up cfg.setups times from empty
// data dirs, then run the timed sequence on the last instance, checking
// every answer. With cfg.traced the mirror observes each timed operation
// and comes back in the result.
func run(w *workload, cfg runConfig) (*result, error) {
	runtime.GC()
	debug.FreeOSMemory()
	_ = resetPeakRSS() // best effort: without it the peak includes input generation
	var setupTimes []time.Duration
	var in *instance
	for k := 0; k < cfg.setups; k++ {
		if in != nil {
			in.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if in, err = openInstance(filepath.Join(cfg.workdir, fmt.Sprintf("data-%d", k))); err != nil {
			return nil, err
		}
		for i := range w.setup {
			o := &w.setup[i]
			rec, _, _ := in.serve(o.method, o.path, o.body)
			if err := checkSetup(o, rec.Code, rec.Body.Bytes()); err != nil {
				in.close()
				return nil, fmt.Errorf("setup op %d (%s %s): %w", i, o.method, o.path, err)
			}
		}
		setupTimes = append(setupTimes, time.Since(t0))
	}
	defer in.close()
	var m *mirror
	if cfg.traced {
		var err error
		if m, err = newMirror(w, in, filepath.Join(cfg.workdir, "shadow")); err != nil {
			return nil, err
		}
		defer m.close()
	}

	chk := newChecker(len(w.ops))
	lat := map[string][]time.Duration{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	lp0, dc0, st0 := lp.ReadCounters(), plan.ReadDeltaCounters(), in.svc.Stats()
	steal0 := stealTicks()
	var writeStart time.Time
	var rounds []round
	start := time.Now()
	for i := range w.ops {
		o := &w.ops[i]
		if m != nil {
			m.before()
		}
		if o.roundStart {
			rounds = append(rounds, round{start: time.Now()})
		}
		failed := chk.failed
		rec, t0, d := in.serve(o.method, o.path, o.body)
		end := t0.Add(d)
		chk.check(i, o, rec.Code, rec.Body.Bytes())
		if r := len(rounds) - 1; r >= 0 && chk.failed == failed {
			rounds[r].completed++
		}
		if m != nil {
			m.after(i, o, rec, t0, d)
		}
		if o.fresh {
			lat["fresh"] = append(lat["fresh"], d)
		}
		if o.hit {
			lat["hit"] = append(lat["hit"], d)
		}
		if o.class == classReplay {
			lat["replay"] = append(lat["replay"], d)
		}
		if o.writeSample {
			lat["append"] = append(lat["append"], d)
		}
		if o.write {
			writeStart = t0
		}
		if o.lastRead {
			r := &rounds[len(rounds)-1]
			r.refresh = append(r.refresh, end.Sub(writeStart))
		}
	}
	wall := time.Since(start)
	rates := roundRates(rounds, start.Add(wall))
	if m != nil && m.err != nil {
		return nil, fmt.Errorf("traced re-issue: %w", m.err)
	}
	steal1 := stealTicks()
	lp1, dc1, st1 := lp.ReadCounters(), plan.ReadDeltaCounters(), in.svc.Stats()
	runtime.ReadMemStats(&ms1)
	chk.checkLedger(in)

	n := len(w.ops)
	tail := tailPercentile(len(lat["fresh"]))
	res := &result{
		Correct:   chk.failed == 0 && len(chk.problems) == 0,
		Attempted: n,
		Failed:    chk.failed,
		mirror:    m,
		Metrics: map[string]metricValue{
			"setup_s":        {medianMs(setupTimes) / 1000, "s"},
			"ops_per_s":      {median(rates), "1/s"},
			"peak_rss_mb":    {peakRSSMB(), "MB"},
			"fresh_p50_ms":   {medianMs(lat["fresh"]), "ms"},
			"fresh_tail_ms":  {percentileMs(lat["fresh"], tail), "ms"},
			"hit_p50_ms":     {medianMs(lat["hit"]), "ms"},
			"refresh_p50_ms": {refreshMs(rounds), "ms"},
			"append_p50_ms":  {medianMs(lat["append"]), "ms"},
		},
	}
	advShare := 0.0
	if k := postAppendQueries(w.ops); k > 0 {
		advShare = float64(dc1.Advances-dc0.Advances) / float64(k)
	}
	counts := map[string]int{}
	for i := range w.ops {
		counts[w.ops[i].class.String()]++
	}
	res.diag = map[string]any{
		"workload":                      w.name,
		"gomaxprocs":                    runtime.GOMAXPROCS(0),
		"go_version":                    runtime.Version(),
		"cpu_model":                     cpuModel(),
		"steal_ticks":                   steal1 - steal0,
		"gc_cycles":                     ms1.NumGC - ms0.NumGC,
		"wall_s":                        wall.Seconds(),
		"wall_ops_per_s":                float64(n-chk.failed) / wall.Seconds(),
		"rounds":                        len(rates),
		"round_ops_per_s_quartiles":     quartiles(rates),
		"setup_s_each":                  secondsOf(setupTimes),
		"ops_by_class":                  counts,
		"fresh_samples":                 len(lat["fresh"]),
		"fresh_tail_percentile":         tail,
		"hit_tail_ms":                   percentileMs(lat["hit"], tailPercentile(len(lat["hit"]))),
		"replay_p50_ms":                 medianMs(lat["replay"]),
		"lp.solves_per_op":              float64(lp1.Solves-lp0.Solves) / float64(n),
		"lp.pivots_per_op":              float64(lp1.Pivots-lp0.Pivots) / float64(n),
		"service.rewarm_advanced_share": advShare,
		"plan.fallbacks":                dc1.Fallbacks - dc0.Fallbacks,
		"compiles":                      st1.Compiles.Count - st0.Compiles.Count,
		"release_digest":                chk.digest(),
		"problems":                      chk.problems,
	}
	return res, nil
}

// round is one round of the timed phase: the operations from one
// roundStart op to the next.
type round struct {
	start     time.Time
	completed int             // operations that passed their checks
	refresh   []time.Duration // each write's refresh that ended in the round
}

// roundRates is each round's completed operations per second of its wall
// time; end closes the last round. ops_per_s is their median, so a burst
// of host load that slows a few rounds moves it little, where the whole
// phase's ops ÷ wall time moves by all of the burst.
func roundRates(rounds []round, end time.Time) []float64 {
	rates := make([]float64, len(rounds))
	for k, r := range rounds {
		next := end
		if k+1 < len(rounds) {
			next = rounds[k+1].start
		}
		rates[k] = float64(r.completed) / next.Sub(r.start).Seconds()
	}
	return rates
}

// refreshMs is the median over the rounds of each round's mean refresh
// time. On graph-append each of a round's three refreshes races the
// background re-warm, and a refresh served by more advanced plans costs
// more, so single refreshes fall into cost modes whose mix moves from run
// to run; a round's mean moves smoothly with the mix.
func refreshMs(rounds []round) float64 {
	var means []float64
	for _, r := range rounds {
		if len(r.refresh) > 0 {
			means = append(means, ms(sum(r.refresh))/float64(len(r.refresh)))
		}
	}
	return median(means)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// checkSetup verifies a set-up answer: success, the uploaded size, and a
// prepare that really compiled.
func checkSetup(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	switch o.class {
	case classPut:
		return checkEdges(o, body)
	case classPrepare:
		var info service.PrepareInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return err
		}
		if info.AlreadyPrepared {
			return fmt.Errorf("prepare found its plan already cached")
		}
	}
	return nil
}

func checkEdges(o *op, body []byte) error {
	if o.edges < 0 {
		return nil
	}
	var info service.DatasetInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return err
	}
	if info.Edges != o.edges {
		return fmt.Errorf("dataset reports %d edges, want %d", info.Edges, o.edges)
	}
	return nil
}

// checker verifies every timed answer and keeps the ledger and digest.
type checker struct {
	failed   int
	problems []string
	values   []uint64 // released value bits by op index
	spent    map[string]float64
	order    []string // datasets in first-spend order
	h        hash.Hash
}

func newChecker(n int) *checker {
	return &checker{values: make([]uint64, n), spent: map[string]float64{}, h: sha256.New()}
}

func (c *checker) fail(format string, args ...any) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// check verifies one answer: any non-200 is a failed operation; a 200 of
// the wrong shape (cached flag against its class, a replay with another
// value, a wrong edge count) fails it too.
func (c *checker) check(i int, o *op, status int, body []byte) {
	if status != http.StatusOK {
		c.failed++
		c.fail("op %d %s %s: status %d: %s", i, o.class, o.path, status, bytes.TrimSpace(body))
		return
	}
	ok := true
	switch {
	case o.isRelease():
		var resp service.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			c.fail("op %d: %v", i, err)
			ok = false
			break
		}
		bits := math.Float64bits(resp.Value)
		c.values[i] = bits
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], bits)
		c.h.Write(b[:])
		wantCached := o.class == classReplay
		if resp.Cached != wantCached {
			c.fail("op %d %s: cached=%v, want %v", i, o.class, resp.Cached, wantCached)
			ok = false
		}
		if o.class == classReplay && bits != c.values[o.replayOf] {
			c.fail("op %d: replay value %v differs from op %d's %v", i, resp.Value, o.replayOf, math.Float64frombits(c.values[o.replayOf]))
			ok = false
		}
		if !resp.Cached {
			if resp.Epsilon != o.query.Epsilon {
				c.fail("op %d: charged ε %v, asked %v", i, resp.Epsilon, o.query.Epsilon)
				ok = false
			}
			if _, seen := c.spent[o.dataset]; !seen {
				c.order = append(c.order, o.dataset)
			}
			c.spent[o.dataset] += o.query.Epsilon
		}
	case o.class == classPut || o.class == classPatch:
		if err := checkEdges(o, body); err != nil {
			c.fail("op %d %s: %v", i, o.class, err)
			ok = false
		}
	}
	if !ok {
		c.failed++
	}
}

// checkLedger compares each dataset's spent ε, as GET /v1/budget reports
// it, with the ε summed over the run's non-cached releases in the same
// order the ledger added them.
func (c *checker) checkLedger(in *instance) {
	for _, ds := range c.order {
		rec, _, _ := in.serve("GET", "/v1/budget/"+ds, nil)
		var st service.BudgetStatus
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			c.fail("ledger %s: status %d: %s", ds, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			continue
		}
		if st.Spent != c.spent[ds] || st.Reserved != 0 {
			c.fail("ledger %s: spent %v reserved %v, releases sum to %v", ds, st.Spent, st.Reserved, c.spent[ds])
		}
	}
}

// digest is a short hash of every released value in op order.
func (c *checker) digest() string { return hex.EncodeToString(c.h.Sum(nil)[:8]) }
