package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// smokeBudget bounds the smoke test's runs; zero lifts the bound.
var smokeBudget = 20 * time.Second

// TestSmoke runs every workload for one second with small pools, traced, and
// checks what the benchmark contract depends on: the emitted metric names
// are exactly BENCHMARK.json's, no operation fails, and each trace file is
// well formed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts xseedd")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayer []string
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	slices.Sort(wantE2E)
	slices.Sort(wantLayer)

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "xseedd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/xseedd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build xseedd: %v\n%s", err, out)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	start := time.Now()
	for _, w := range workloads {
		rc := runConfig{w: w, seed: 1, measure: time.Second, trace: true, smoke: true, xseedd: bin,
			dir: filepath.Join(tmp, w.name), outDir: filepath.Join(tmp, "out"), report: io.Discard}
		if err := os.MkdirAll(rc.dir, 0o755); err != nil {
			t.Fatal(err)
		}
		res, err := runOnce(context.Background(), rc)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", w.name, res.Attempted, res.Failed, res.Problems)
		}
		for trace, want := range map[bool][]string{false: wantE2E, true: wantLayer} {
			line, err := resultLine(res, trace)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			var got []string
			for n, m := range out.Metrics {
				got = append(got, n)
				if !name.MatchString(n) || !unit.MatchString(m.Unit) {
					t.Errorf("%s: bad metric name or unit %q %q", w.name, n, m.Unit)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics\n%v\nwant\n%v", w.name, trace, got, want)
			}
		}
		checkTraceFile(t, filepath.Join(rc.outDir, "trace-"+w.name+".json"))
	}
	if d := time.Since(start); smokeBudget > 0 && d > smokeBudget {
		t.Errorf("smoke runs took %v, over the %v budget", d, smokeBudget)
	}
}

// checkTraceFile requires every span to lie inside its parent and every
// span's self time (duration minus its children's) to be non-negative.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	const eps = 1e-3 // µs of float rounding
	self := make([]float64, len(tf.TraceEvents))
	for i, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args.Span != i {
			t.Fatalf("%s: malformed event %d: %+v", path, i, e)
		}
		self[i] += e.Dur
		p := e.Args.Parent
		if p < 0 {
			continue
		}
		if p >= i {
			t.Fatalf("%s: span %d has parent %d recorded after it", path, i, p)
		}
		par := tf.TraceEvents[p]
		if e.TS < par.TS-eps || e.TS+e.Dur > par.TS+par.Dur+eps || e.Args.Req != par.Args.Req {
			t.Fatalf("%s: span %d (%s) not nested in its parent %d (%s)", path, i, e.Name, p, par.Name)
		}
		self[p] -= e.Dur
	}
	for i, s := range self {
		if s < -eps {
			t.Fatalf("%s: span %d (%s) has self time %v µs", path, i, tf.TraceEvents[i].Name, s)
		}
	}
}
