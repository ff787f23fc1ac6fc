// Command recmechbench is the repository's benchmark: it runs recmechd's
// production configuration in-process — a durable store with fsync on,
// the service over it, and the HTTP handler with its middleware — and
// drives one seeded workload through in-memory HTTP requests from one
// closed-loop client, checking every answer.
//
//	recmechbench --workload sql-joins --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries the
// run's noise diagnostics and release digest. --trace 1 runs the same
// sequence once more with per-layer spans and counters and prints the
// per-layer metrics instead (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "recmechbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("recmechbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sql-joins, graph-append or graph-sampled")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs and operations")
	seconds := fs.Int("seconds", 10, "run length; fixes the number of operations")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	w, err := buildWorkload(*name, *seed, *seconds)
	if err != nil {
		return err
	}
	workdir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	cfg := runConfig{workdir: workdir, traceDir: filepath.Join(".bench_build", "traces"), setups: setupRepeats}
	var res *result
	if *traced == 1 {
		var base float64
		if base, err = untracedBaseline(*name, *seed, *seconds); err != nil {
			return err
		}
		res, err = runTraced(w, cfg, *seed, base)
	} else {
		res, err = run(w, cfg)
	}
	if err != nil {
		return err
	}
	return printResult(os.Stdout, res)
}

// printResult writes the diagnostics line, then the result line.
func printResult(f io.Writer, res *result) error {
	diag, err := json.Marshal(map[string]any{"diagnostics": res.diag})
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", diag, out)
	return err
}
