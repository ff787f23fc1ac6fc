package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, driver has %v", names, workloadNames)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameOps(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].class != b[i].class || a[i].method != b[i].method || a[i].path != b[i].path ||
			!bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

// The inputs and the operation sequence are a pure function of the seed.
func TestWorkloadIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := buildWorkload(name, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := buildWorkload(name, 7, 2)
			c, _ := buildWorkload(name, 8, 2)
			if !sameOps(a.setup, b.setup) || !sameOps(a.ops, b.ops) {
				t.Fatal("the same seed built different operations")
			}
			if sameOps(a.setup, c.setup) && sameOps(a.ops, c.ops) {
				t.Fatal("two seeds built identical operations")
			}
			if len(a.ops) == 0 || len(a.setup) == 0 {
				t.Fatal("empty workload")
			}
			// Every refresh starts at a write and ends at the battery
			// answer after it, one at a time.
			open := false
			for i := range a.ops {
				o := &a.ops[i]
				if (o.write && open) || (o.lastRead && !open) {
					t.Fatalf("op %d (%s): refresh markers out of order", i, o.class)
				}
				if o.write {
					open = true
				}
				if o.lastRead {
					open = false
				}
			}
			if open {
				t.Fatal("the last refresh never ends")
			}
			// The timed phase opens a round at its first op, and every
			// round asks the same classes in the same order: ops_per_s is
			// a median over like rounds.
			if !a.ops[0].roundStart {
				t.Fatal("the timed phase does not open with a round")
			}
			var shapes [][]opClass
			for i := range a.ops {
				if a.ops[i].roundStart {
					shapes = append(shapes, nil)
				}
				shapes[len(shapes)-1] = append(shapes[len(shapes)-1], a.ops[i].class)
			}
			for k := range shapes {
				if !reflect.DeepEqual(shapes[k], shapes[0]) {
					t.Fatalf("round %d asks %v, round 0 asks %v", k, shapes[k], shapes[0])
				}
			}
		})
	}
	if _, err := buildWorkload("nope", 1, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {11, 9}, {20, 50}, {40, 75}, {100, 90}, {1000, 99}, {5000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rank the percentile selects leaves at least ten samples beyond
	// it, and the next percentile up would not (until the cap at p99).
	for n := 11; n <= 3000; n++ {
		p := tailPercentile(n)
		rank := (p*n + 99) / 100
		if n-rank < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond", n, p, n-rank)
		}
		if next := (p + 1) * n; p < 99 && n-(next+99)/100 >= 10 {
			t.Fatalf("n=%d: p%d is not the highest percentile with ten beyond", n, p)
		}
	}
	samples := make([]time.Duration, 40)
	for i := range samples {
		samples[i] = time.Duration(40-i) * time.Millisecond
	}
	if got := percentileMs(samples, tailPercentile(len(samples))); got != 30 {
		t.Fatalf("p75 of 1..40 ms = %v, want 30", got)
	}
	if got := medianMs(samples); got != 20.5 {
		t.Fatalf("median of 1..40 ms = %v, want 20.5", got)
	}
}

func TestRoundRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	rounds := []round{
		{start: t0, completed: 10},                      // 1 s
		{start: t0.Add(time.Second), completed: 10},     // 2 s: a slow round
		{start: t0.Add(3 * time.Second), completed: 9},  // 1 s, one op failed
		{start: t0.Add(4 * time.Second), completed: 10}} // 0.5 s, closed by end
	got := roundRates(rounds, t0.Add(4500*time.Millisecond))
	if want := []float64{10, 5, 9, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("roundRates = %v, want %v", got, want)
	}
	if m := median(got); m != 9.5 {
		t.Fatalf("median = %v, want 9.5", m)
	}
	if q := quartiles(got); q != [3]float64{5, 9.5, 10} {
		t.Fatalf("quartiles = %v", q)
	}
	rounds[0].refresh = []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 600 * time.Millisecond} // mean 300
	rounds[1].refresh = []time.Duration{400 * time.Millisecond}
	rounds[3].refresh = []time.Duration{100 * time.Millisecond, 100 * time.Millisecond}
	if got := refreshMs(rounds); got != 300 {
		t.Fatalf("refreshMs = %v, want the median of the round means 300, 400, 100", got)
	}
}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{workdir: t.TempDir(), traceDir: t.TempDir(), setups: 1}
}

// A short run of every workload passes every output check and reports
// every declared end-to-end metric, none of them zero.
func TestSmokeRuns(t *testing.T) {
	endToEnd, _ := declared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := buildWorkload(name, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(w, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != len(w.ops) {
				t.Fatalf("correct=%v failed=%d attempted=%d problems=%v", res.Correct, res.Failed, res.Attempted, res.diag["problems"])
			}
			var got []string
			for k, v := range res.Metrics {
				got = append(got, k)
				if v.Value <= 0 {
					t.Errorf("%s = %v", k, v.Value)
				}
			}
			want := append([]string(nil), endToEnd...)
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
			}
		})
	}
}

// Releases are bit-identical by design, so two runs of one seed release
// the same values.
func TestReleaseDigestRepeats(t *testing.T) {
	w, err := buildWorkload("graph-append", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var digests []any
	for k := 0; k < 2; k++ {
		res, err := run(w, smokeConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.diag["release_digest"])
	}
	if digests[0] != digests[1] {
		t.Fatalf("digests differ across runs of one seed: %v", digests)
	}
}

// The checks catch a wrong answer: a release that is not the replay it
// should be, and a request the service refuses.
func TestChecksCatchWrongAnswers(t *testing.T) {
	w, err := buildWorkload("graph-append", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var battery, put int
	for i := range w.ops {
		switch w.ops[i].class {
		case classBattery:
			battery = i
		case classPut:
			put = i
		}
	}
	w.ops[battery].class, w.ops[battery].replayOf = classReplay, battery-1 // expects cached=true
	w.ops[put].path = "/v1/datasets/bad!name"                              // 400
	res, err := run(w, smokeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 {
		t.Fatalf("correct=%v failed=%d, want false and 2 (problems %v)", res.Correct, res.Failed, res.diag["problems"])
	}
}

// The traced run emits every declared per-layer metric.
func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	_, perLayer := declared(t)
	w, err := buildWorkload("graph-append", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runTraced(w, smokeConfig(t), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run not correct: %v", res.diag["problems"])
	}
	var got []string
	for k := range res.Metrics {
		got = append(got, k)
	}
	sort.Strings(got)
	want := append([]string(nil), perLayer...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for _, k := range []string{"plan.advance_ms", "subgraph.advance_ms", "plan.advanced_release_ms", "lp.pivots_per_op", "service.handler_self_ms"} {
		if res.Metrics[k].Value <= 0 {
			t.Errorf("%s = %v on graph-append", k, res.Metrics[k].Value)
		}
	}
}
