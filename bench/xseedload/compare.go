package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// resultsFile is what -out writes and compare reads: a label saying where
// the numbers were measured, and every run.
type resultsFile struct {
	Label map[string]string `json:"label"`
	Runs  []*runResult      `json:"runs"`
}

func label(commit string, seconds int, trace bool) map[string]string {
	return map[string]string{
		"nproc":   fmt.Sprint(runtime.NumCPU()),
		"cpu":     cpuModel(),
		"go":      runtime.Version(),
		"commit":  commit,
		"seconds": fmt.Sprint(seconds),
		"trace":   fmt.Sprint(trace),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeResults(path string, lbl map[string]string, runs []*runResult) error {
	b, err := json.MarshalIndent(resultsFile{Label: lbl, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readRuns reads the runs of every results file that pattern (a path, or a
// glob such as 'base-*.json' for runs made one at a time) matches.
func readRuns(pattern string) ([]*runResult, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results file matches %s", pattern)
	}
	var runs []*runResult
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, rf.Runs...)
	}
	return runs, nil
}

// values collects one metric of one workload across runs.
func values(runs []*runResult, wl, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == wl {
			v = append(v, m.Value)
		}
	}
	return v
}

// failedShare is the share of operations that failed across a workload's runs.
func failedShare(runs []*runResult, wl string) float64 {
	var att, failed int64
	for _, r := range runs {
		if r.Workload == wl {
			att += r.Attempted
			failed += r.Failed
		}
	}
	return ratio(float64(failed), float64(att))
}

// spreadLimit is the relative spread above which a metric/workload pair is
// too noisy to gate on.
const spreadLimit = 0.10

// repeatability prints, per workload and metric, the median and the
// relative spread (interquartile range over median) across runs.
func repeatability(w io.Writer, runs []*runResult) {
	for _, wl := range workloads {
		var names []string
		for _, r := range runs {
			for n := range r.Metrics {
				if r.Workload == wl.name && !slices.Contains(names, n) {
					names = append(names, n)
				}
			}
		}
		if len(names) == 0 {
			continue
		}
		slices.SortFunc(names, func(a, b string) int {
			ea, eb := slices.Index(e2eMetrics, a), slices.Index(e2eMetrics, b)
			if (ea < 0) != (eb < 0) {
				return ea - eb // end-to-end metrics first, in their table order
			}
			if ea >= 0 {
				return ea - eb
			}
			return strings.Compare(a, b)
		})
		fmt.Fprintf(w, "%s: %d runs, failed share %.4f\n", wl.name, len(values(runs, wl.name, names[0])), failedShare(runs, wl.name))
		for _, n := range names {
			v := values(runs, wl.name, n)
			flag := ""
			if s := spread(v); s > spreadLimit && slices.Contains(e2eMetrics, n) {
				flag = "  spread above 10%"
			}
			fmt.Fprintf(w, "  %-28s median %14.6g  spread %6.2f%%%s\n", n, median(v), 100*spread(v), flag)
		}
	}
}

// specMetric is one metric of BENCHMARK.json; per-layer metrics have no bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of compare.
const (
	better       = "better"
	worse        = "worse"
	worseInBound = "worse (in bound)"
	unchanged    = "unchanged"
	unresolved   = "unresolved"
)

// verdict compares one metric's runs on one workload, given as pairs:
// base[i] and cur[i] ran with the same seed, and in the procedure the README
// gives, one right after the other. A gain counts when the new median beats
// the base median by more than the base's own spread and the new run wins
// at least nine tenths of the pairs, ties counting for neither; a loss is
// resolved by the mirror image of that rule. Pairs taken next to each other
// share the host's state, so a slow hour moves both sides of a pair rather
// than only one side's runs. For an end-to-end metric a regression counts
// when the new median is worse by more than bound, and the result is
// unresolved when the base spread is wider than bound, unless every new run
// is worse than every base run; a resolved loss smaller than bound is
// reported, but is not a regression. A per-layer metric has no bound (pass
// a negative one): a resolved loss is worse, and that never fails a
// comparison.
func verdict(base, cur []float64, bound float64, higherBetter bool) string {
	mb, mc := median(base), median(cur)
	gain := (mc - mb) / mb
	if mb == 0 {
		gain = mc - mb
	}
	if !higherBetter {
		gain = -gain
	}
	wins, losses := 0, 0
	for i, b := range base {
		switch c := cur[i]; {
		case c == b:
		case (c > b) == higherBetter:
			wins++
		default:
			losses++
		}
	}
	sb := spread(base)
	resolved := func(g float64, n int) bool { return g > sb && float64(n) >= 0.9*float64(len(base)) }
	lost := resolved(-gain, losses)
	// Every new run worse than every base run.
	allWorse := slices.Max(cur) < slices.Min(base)
	if !higherBetter {
		allWorse = slices.Min(cur) > slices.Max(base)
	}
	switch {
	case resolved(gain, wins):
		return better
	case bound < 0 && lost:
		return worse
	case bound < 0:
		return unchanged
	case gain < -bound && (sb <= bound || allWorse):
		return worse
	case sb > bound:
		return unresolved
	case lost:
		return worseInBound
	}
	return unchanged
}

// compareMain implements `xseedload compare base.json new.json`.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: xseedload compare [-benchmark BENCHMARK.json] base.json new.json")
		return 2
	}
	spec, err := readSpec(*specPath)
	var base, cur []*runResult
	if err == nil {
		base, err = readRuns(fs.Arg(0))
	}
	if err == nil {
		cur, err = readRuns(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xseedload compare:", err)
		return 2
	}
	if compare(os.Stdout, spec, base, cur) {
		return 1
	}
	return 0
}

// compare prints one row per workload and metric and reports whether
// anything regressed: an end-to-end metric judged worse, or a higher share
// of failed operations. Per-layer rows show where a change moved time.
func compare(w io.Writer, spec *benchSpec, base, cur []*runResult) (regressed bool) {
	for _, wl := range workloads {
		b, _ := paired(base, cur, wl.name, "setup_s")
		if len(b) == 0 {
			continue
		}
		fb, fc := failedShare(base, wl.name), failedShare(cur, wl.name)
		fmt.Fprintf(w, "%s: %d pairs of runs, failed share %.4f -> %.4f\n", wl.name, len(b), fb, fc)
		if fc > fb {
			fmt.Fprintf(w, "  failed share rose\n")
			regressed = true
		}
		for _, m := range spec.EndToEnd {
			if compareRow(w, wl.name, m, m.Bound, base, cur) == worse {
				regressed = true
			}
		}
		for _, m := range spec.PerLayer {
			compareRow(w, wl.name, m, -1, base, cur)
		}
	}
	return regressed
}

// paired collects one metric of one workload from both sides, as pairs of
// runs with the same seed, in seed order. Runs whose seed the other side
// lacks are left out.
func paired(base, cur []*runResult, wl, name string) (b, c []float64) {
	bySeed := func(runs []*runResult) map[int64]float64 {
		out := map[int64]float64{}
		for _, r := range runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == wl {
				out[r.Seed] = m.Value
			}
		}
		return out
	}
	bs, cs := bySeed(base), bySeed(cur)
	var seeds []int64
	for s := range bs {
		if _, ok := cs[s]; ok {
			seeds = append(seeds, s)
		}
	}
	slices.Sort(seeds)
	for _, s := range seeds {
		b, c = append(b, bs[s]), append(c, cs[s])
	}
	return b, c
}

// compareRow prints one metric's medians, quartiles and verdict over the
// pairs of runs.
func compareRow(w io.Writer, wl string, m specMetric, bound float64, base, cur []*runResult) string {
	b, c := paired(base, cur, wl, m.Name)
	if len(b) == 0 {
		return ""
	}
	qb, qc := quartiles(b), quartiles(c)
	v := verdict(b, c, bound, m.Better == "higher")
	lim := "     -"
	if bound >= 0 {
		lim = fmt.Sprintf("%5.0f%%", 100*bound)
	}
	fmt.Fprintf(w, "  %-28s %-5s base %12.6g [%.6g, %.6g]  new %12.6g [%.6g, %.6g]  %+8.2f%%  bound %s  %s\n",
		m.Name, m.Unit, qb[1], qb[0], qb[2], qc[1], qc[0], qc[2], 100*ratio(qc[1]-qb[1], qb[1]), lim, v)
	return v
}
