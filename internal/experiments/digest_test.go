package experiments

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"xseed"
	"xseed/internal/fixtures"
)

var update = flag.Bool("update", false, "rewrite testdata/estimates from the current estimates")

// digestPool is one pool of the estimate digest: the queries whose
// estimates testdata/estimates/<name>.txt pins, in order, and their
// estimates.
type digestPool struct {
	name string
	qs   []*xseed.Query
	est  []float64
}

// TestEstimateDigest pins the bits of every estimate over fixed query
// pools. Estimates are deterministic, so a change that means to leave them
// alone (a refactor of the plan runner, the EPT builder or the HET) must
// leave every line of the files as it is; a change that moves estimates on
// purpose rewrites them with -update and says why.
//
// A file holds one line per query, in pool order: math.Float64bits of its
// estimate as 16 hex digits. The queries are regenerated, not stored:
//   - xmark and dblp ×0.01 (seed 1) at card threshold 0, and treebank
//     ×0.01 at thresholds 20 and 0.2, each 1BP and each estimating the
//     document's first 1,000 simple paths, then RandomWorkload("BP", 500,
//     1, 1), then RandomWorkload("CP", 500, 1, 1);
//   - fig2: queries over the paper's Figure 2 on the bare kernel;
//   - fig4: queries over Figure 4 with a 2BP hyper-edge table, where path
//     overrides and correlated pattern selectivities are in play.
//
// The bits are amd64's. Elsewhere the compiler may fuse a multiply and an
// add into one rounding, so there the test allows a relative 1e-9.
func TestEstimateDigest(t *testing.T) {
	pools := digestPools(t)
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "estimates"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pools {
		path := filepath.Join("testdata", "estimates", p.name+".txt")
		if *update {
			var buf bytes.Buffer
			for _, v := range p.est {
				fmt.Fprintf(&buf, "%016x\n", math.Float64bits(v))
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := readDigest(path)
		if err != nil {
			t.Fatalf("%s: %v (rewrite with -update)", p.name, err)
		}
		if len(want) != len(p.est) {
			t.Errorf("pool %s: %d queries, digest has %d", p.name, len(p.est), len(want))
			continue
		}
		for i, got := range p.est {
			if !sameEstimate(got, want[i]) {
				t.Errorf("pool %s: query %d %s: estimate %v (%016x), digest %v (%016x)",
					p.name, i, p.qs[i], got, math.Float64bits(got), want[i], math.Float64bits(want[i]))
				break
			}
		}
	}
}

// sameEstimate compares bits on amd64, and within a relative 1e-9 where
// the compiler may fuse multiply-adds.
func sameEstimate(got, want float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// readDigest reads the estimates of one digest file.
func readDigest(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		bits, err := strconv.ParseUint(sc.Text(), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %v", path, len(out)+1, err)
		}
		out = append(out, math.Float64frombits(bits))
	}
	return out, sc.Err()
}

// digestPools builds the digest's pools and estimates them. Generating
// the random workloads is most of the test's time, so each dataset's
// simple paths, BP and CP queries are generated and estimated in a
// goroutine of their own, over a copy of the document of their own: a
// Document's exact evaluator, which generation runs, serves one goroutine
// at a time, and generation is deterministic in the seed, so every copy
// is the same document.
func digestPools(t *testing.T) []digestPool {
	t.Helper()
	datasets := []struct {
		name       string
		thresholds []float64
	}{
		{"xmark", []float64{0}},
		{"dblp", []float64{0}},
		{"treebank", []float64{20, 0.2}},
	}
	classes := []string{"SP", "BP", "CP"}
	// parts[d][c][k] is class c of dataset d, estimated at its k-th threshold.
	parts := make([][][]digestPool, len(datasets))
	errs := make([]error, len(datasets)*len(classes))
	var wg sync.WaitGroup
	for d, ds := range datasets {
		parts[d] = make([][]digestPool, len(classes))
		for c, class := range classes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[d][c], errs[d*len(classes)+c] = classPools(ds.name, class, ds.thresholds)
			}()
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	var pools []digestPool
	for d, ds := range datasets {
		for k, th := range ds.thresholds {
			p := digestPool{name: ds.name}
			if len(ds.thresholds) > 1 {
				p.name += "-" + strconv.FormatFloat(th, 'g', -1, 64)
			}
			for c := range classes {
				p.qs = append(p.qs, parts[d][c][k].qs...)
				p.est = append(p.est, parts[d][c][k].est...)
			}
			pools = append(pools, p)
		}
	}

	fig2, err := figurePool("fig2", fixtures.PaperFigure2, &xseed.Config{HET: &xseed.HETConfig{Disable: true}}, []string{
		"/a", "/a/c", "/a/c/s", "/a/c/s/p", "/a/c/s/s/t",
		"//s", "//p", "//s//p", "//s//s//p", "//s/p",
		"/a/c/s[t]/p", "/a/c/s[t][p]", "/a/c[p]/s", "/a/c/s[s]",
		"//c[t]/s", "/a/*/t", "//*", "/*",
		"//s[t]/p", "//s[s]/p",
		"/zzz", "//zzz", "/a/c[zzz]/s",
	})
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := figurePool("fig4", fixtures.PaperFigure4, &xseed.Config{HET: &xseed.HETConfig{MBP: 2, BselThreshold: 0.5}}, []string{
		"/a/b/d/e", "/a/c/d/e", "/a/b/d[f]/e", "/a/c/d[e]/f",
		"//d[f]/e", "//d[e][f]/e", "/a/b/d[e][f]/e",
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(pools, fig2, fig4)
}

// classPools generates the dataset at ×0.01 with seed 1 and one class of
// its queries: the first 1,000 simple paths ("SP"), or 500 random "BP" or
// "CP" queries with at most one predicate per step, seed 1. It estimates
// them under a 1BP synopsis at each card threshold.
func classPools(dataset, class string, thresholds []float64) ([]digestPool, error) {
	doc, err := xseed.Generate(dataset, 0.01, 1)
	if err != nil {
		return nil, err
	}
	var qs []*xseed.Query
	if class == "SP" {
		qs = doc.SimplePathQueries(1000)
	} else if qs, err = doc.RandomWorkload(class, 500, 1, 1); err != nil {
		return nil, err
	}
	pools := make([]digestPool, len(thresholds))
	for k, th := range thresholds {
		syn, err := xseed.BuildSynopsis(doc, &xseed.Config{CardThreshold: th})
		if err != nil {
			return nil, err
		}
		pools[k] = estimatePool("", syn, qs)
	}
	return pools, nil
}

// figurePool builds a synopsis of a paper figure and estimates its queries.
func figurePool(name, xml string, cfg *xseed.Config, queries []string) (digestPool, error) {
	doc, err := xseed.ParseXMLString(xml)
	if err != nil {
		return digestPool{}, err
	}
	syn, err := xseed.BuildSynopsis(doc, cfg)
	if err != nil {
		return digestPool{}, err
	}
	qs := make([]*xseed.Query, len(queries))
	for i, s := range queries {
		if qs[i], err = xseed.ParseQuery(s); err != nil {
			return digestPool{}, err
		}
	}
	return estimatePool(name, syn, qs), nil
}

// estimatePool estimates every query with the synopsis's plan runner.
func estimatePool(name string, syn *xseed.Synopsis, qs []*xseed.Query) digestPool {
	sn := syn.Snapshot()
	p := digestPool{name: name, qs: qs, est: make([]float64, len(qs))}
	for i, q := range qs {
		p.est[i] = sn.EstimateQuery(q)
	}
	return p
}
