// Command xseedload is the end-to-end benchmark of xseedd. For each workload
// it starts a fresh daemon on loopback, drives it from this one process over
// at most two connections as one authenticated tenant, checks every answer
// against an in-process reference synopsis, and prints each metric by name
// and unit. With -trace 1 it also replays the run's request stream
// in-process through the layers' public functions and reports per-layer
// times, writing the spans as a Chrome trace. See bench/README.md.
//
//	xseedload -workload hot-xtp -seed 1 -seconds 10 -trace 0
//	xseedload -runs 5 -out results.json
//	xseedload compare base.json new.json
//
// A single-workload run prints, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
//
// It runs from the root of the repository it measures: it builds that
// tree's ./cmd/xseedd, and keeps binaries, stores and logs under
// .bench_build there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xseedload:", err)
		os.Exit(1)
	}
}

func run() error {
	wname := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: also replay the run traced and report per-layer metrics")
	runs := flag.Int("runs", 1, "runs per workload, each with the next seed; more than one prints a repeatability report")
	out := flag.String("out", "", "write every run's results to this JSON file")
	smoke := flag.Bool("smoke", false, "1 s per workload with small pools and one launch (the smoke test)")
	commit := flag.String("commit", "", "commit label recorded in -out")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}

	var sel []workload
	if *wname == "all" {
		sel = workloads
	} else {
		w, err := findWorkload(*wname)
		if err != nil {
			return err
		}
		sel = []workload{w}
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	measure := time.Duration(*seconds) * time.Second
	if *smoke {
		measure = time.Second
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(buildDir)
	if err != nil {
		return err
	}

	var results []*runResult
	for _, w := range sel {
		for i := range *runs {
			rc := runConfig{w: w, seed: *seed + int64(i), measure: measure, trace: *trace == 1, smoke: *smoke,
				xseedd: bin, outDir: filepath.Join("bench", "out"), report: os.Stdout,
				dir: filepath.Join(buildDir, fmt.Sprintf("run-%s-%d", w.name, *seed+int64(i)))}
			res, err := runIn(rc)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, rc.seed, err)
			}
			printRun(res)
			results = append(results, res)
		}
	}
	if *out != "" {
		if err := writeResults(*out, label(*commit, *seconds, *trace == 1), results); err != nil {
			return err
		}
	}
	if len(results) > 1 {
		repeatability(os.Stdout, results)
		return nil
	}
	line, err := resultLine(results[0], *trace == 1)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runIn runs rc in a fresh scratch directory, removed afterwards unless the
// run failed (its daemon logs are kept for diagnosis).
func runIn(rc runConfig) (*runResult, error) {
	if err := os.RemoveAll(rc.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	res, err := runOnce(context.Background(), rc)
	if err == nil && res.Correct {
		os.RemoveAll(rc.dir)
	}
	return res, err
}

// printRun prints a run's metrics by name and unit, and its checks.
func printRun(r *runResult) {
	fmt.Printf("%s seed %d: attempted %d, failed %d, correct %v, samples %v\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct, r.Samples)
	if !r.Valid {
		fmt.Printf("  invalid run: open-loop lateness p99 %.3f ms exceeds %.1f ms\n", r.Metrics["loadgen.late_p99_ms"].Value, maxLateMs)
	}
	for _, p := range r.Problems {
		fmt.Printf("  check failed: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// resultLine is the one-line JSON result: the end-to-end metrics, or with
// trace the per-layer ones.
func resultLine(r *runResult, trace bool) ([]byte, error) {
	m := map[string]metric{}
	for n, v := range r.Metrics {
		if slices.Contains(e2eMetrics, n) != trace {
			m[n] = v
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
}
