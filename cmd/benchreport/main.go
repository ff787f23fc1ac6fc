// Command benchreport converts `go test -bench` text output into a stable
// JSON document, so CI can archive benchmark results (BENCH_PR3.json and
// successors) and later runs can diff them mechanically.
//
//	go test ./internal/service -run '^$' -bench . | benchreport -o BENCH.json
//
// The parser accepts the standard benchmark line shape
//
//	BenchmarkName-8    12736    93165 ns/op    54161 B/op    780 allocs/op
//
// plus the goos/goarch/pkg/cpu header lines, which land in the metadata
// object, plus any custom units emitted with testing.B.ReportMetric —
//
//	BenchmarkServiceQueryCached-8   5000   1949 ns/op   0.97 hit_ratio
//
// which land in the result's "extra" object keyed by unit (this is how
// the service benchmarks report cache-hit ratios and the metrics-overhead
// per-event costs ride along from internal/metrics). Unrecognized lines
// are ignored, so piping the full `go test` output (including PASS/ok
// trailers) is fine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Extra holds custom testing.B.ReportMetric units (e.g. hit_ratio).
	Extra map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Meta       map[string]string `json:"meta,omitempty"`
	Benchmarks []result          `json:"benchmarks"`
}

// metaFlags collects repeated -meta key=value pairs, stamped into the
// report's meta object next to the parsed goos/goarch/pkg/cpu headers — CI
// uses it to record which commit and GOMAXPROCS setting produced an artifact,
// so scaling reports (e.g. the compile-scaling suite) stay comparable
// across runs.
type metaFlags map[string]string

func (m metaFlags) String() string { return fmt.Sprint(map[string]string(m)) }

func (m metaFlags) Set(v string) error {
	key, val, ok := strings.Cut(v, "=")
	if !ok || key == "" {
		return fmt.Errorf("want key=value, got %q", v)
	}
	m[key] = val
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	extra := metaFlags{}
	flag.Var(extra, "meta", "additional key=value for the report's meta object (repeatable)")
	flag.Parse()

	rep := report{Meta: map[string]string{}}
	for k, v := range extra {
		rep.Meta[k] = v
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				rep.Meta[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if r, ok := parseBench(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	if len(rep.Benchmarks) == 0 {
		fail(fmt.Errorf("no benchmark lines found on stdin"))
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	if err != nil {
		fail(err)
	}
}

// parseBench parses one benchmark result line; ok is false for lines that
// merely start with "Benchmark" (e.g. a benchmark's own log output).
func parseBench(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return result{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "B/op":
			b := int64(v)
			r.BytesPerOp = &b
		case "allocs/op":
			a := int64(v)
			r.AllocsPerOp = &a
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
