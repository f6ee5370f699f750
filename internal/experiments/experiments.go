// Package experiments implements the paper's evaluation (Section 6): one
// function per table or figure, each building the required datasets,
// synopses and workloads and reporting the same rows/series the paper
// reports. The bench harness (bench_test.go) and the xseedbench command
// both drive this package; EXPERIMENTS.md records paper-vs-measured
// results.
//
// Scales: the paper's datasets are reproduced by synthetic generators at
// configurable fractions of their full size (Config.Scale multiplies the
// per-dataset paper proportions). Absolute numbers therefore differ from
// the paper; the comparisons the paper draws — who wins, by what factor,
// where construction blows up — are what the harness verifies.
package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"xseed"
	"xseed/client"
	"xseed/internal/datagen"
	"xseed/internal/kernel"
	"xseed/internal/metrics"
	"xseed/internal/nok"
	"xseed/internal/pathtree"
	"xseed/internal/treesketch"
	"xseed/internal/workload"
	"xseed/internal/xmldoc"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Scale multiplies every dataset's paper-proportioned size (1.0 = paper
	// scale: DBLP ≈ 4M nodes). Zero means 0.05.
	Scale float64

	// QueriesPerClass is the number of random BP and CP queries per
	// workload (the paper uses 1,000). Zero means 200.
	QueriesPerClass int

	// Seed drives dataset and workload generation.
	Seed int64

	// TreeSketchOpBudget bounds TreeSketch construction; exceeding it
	// reports DNF, reproducing the paper's 24-hour cutoff. Zero means
	// 3e8 operations.
	TreeSketchOpBudget int64

	// Remote routes the accuracy experiments' XSEED estimates through a
	// live xseedd at this address (host:port or URL): each synopsis under
	// measurement is uploaded as a snapshot and estimated via the client
	// SDK, so the numbers cover the full serving path. Empty estimates
	// embedded. Construction-timing experiments (Table 2, Section 6.4) and
	// the TreeSketch baseline — which xseedd does not serve — always run
	// locally.
	Remote string
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 0.05
	}
	return c.Scale
}

func (c Config) queries() int {
	if c.QueriesPerClass <= 0 {
		return 200
	}
	return c.QueriesPerClass
}

func (c Config) tsOpBudget() int64 {
	if c.TreeSketchOpBudget <= 0 {
		return 3e8
	}
	return c.TreeSketchOpBudget
}

// DatasetSpec describes one of the paper's experimental datasets in
// generator terms.
type DatasetSpec struct {
	Key           string  // paper name, e.g. "Treebank.05"
	Generator     string  // datagen name
	Factor        float64 // fraction of the generator's full size
	BselThreshold float64 // HET pre-computation threshold (Section 6.2)
	CardThreshold float64 // estimator pruning threshold (Section 6.4)
}

// PaperDatasets are the representative datasets of Tables 2 and 3.
func PaperDatasets() []DatasetSpec {
	return []DatasetSpec{
		{Key: "DBLP", Generator: datagen.NameDBLP, Factor: 1.0, BselThreshold: 0.1},
		{Key: "XMark10", Generator: datagen.NameXMark, Factor: 0.1, BselThreshold: 0.1},
		{Key: "XMark100", Generator: datagen.NameXMark, Factor: 1.0, BselThreshold: 0.1},
		{Key: "Treebank.05", Generator: datagen.NameTreebank, Factor: 0.05, BselThreshold: 0.001, CardThreshold: 20},
		{Key: "Treebank", Generator: datagen.NameTreebank, Factor: 1.0, BselThreshold: 0.001, CardThreshold: 20},
	}
}

func specByKey(key string) (DatasetSpec, bool) {
	for _, s := range PaperDatasets() {
		if s.Key == key {
			return s, true
		}
	}
	return DatasetSpec{}, false
}

// built bundles everything one dataset needs.
type built struct {
	spec DatasetSpec
	doc  *xmldoc.Document
	pt   *pathtree.Tree
	kern *kernel.Kernel
	ev   *nok.Evaluator

	kernelBuildTime time.Duration
	docStats        xmldoc.Stats
}

// buildDataset generates the dataset at the configured scale and builds
// document storage + path tree + kernel in one pass, timing the kernel
// construction separately (a second, kernel-only pass) for Table 2.
//
// CARD_THRESHOLD is proportional to dataset cardinalities, so the spec's
// paper-scale value (20 for Treebank) is multiplied by the effective scale:
// at scale 1.0 the paper's setting applies verbatim.
func buildDataset(cfg Config, spec DatasetSpec) (*built, error) {
	spec.CardThreshold *= cfg.scale()
	dict := xmldoc.NewDict()
	kb := kernel.NewBuilder(dict)
	pb := pathtree.NewBuilder(dict)
	doc, err := generate(cfg, spec, dict, kb, pb)
	if err != nil {
		return nil, err
	}
	k, err := kb.Kernel()
	if err != nil {
		return nil, err
	}
	// Kernel-only pass for construction timing (the paper times synopsis
	// construction given the document).
	start := time.Now()
	kb2 := kernel.NewBuilder(dict)
	if err := doc.Emit(dict, kb2); err != nil {
		return nil, err
	}
	if _, err := kb2.Kernel(); err != nil {
		return nil, err
	}
	kernelTime := time.Since(start)

	return &built{
		spec:            spec,
		doc:             doc,
		pt:              pb.Tree(),
		kern:            k,
		ev:              nok.New(doc),
		kernelBuildTime: kernelTime,
		docStats:        doc.Stats(),
	}, nil
}

// generate produces the spec's document at the configured scale, feeding
// sinks in the same parse pass. Generation is deterministic in (generator,
// factor, seed), so this is the document rootDataset builds through the
// public API.
func generate(cfg Config, spec DatasetSpec, dict *xmldoc.Dict, sinks ...xmldoc.Sink) (*xmldoc.Document, error) {
	src, err := datagen.New(spec.Generator, spec.Factor*cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return xmldoc.Build(src, dict, sinks...)
}

// combinedWorkload is Section 6.4's internal-API copy of the combined
// SP+BP+CP workload (same seeds and options as combinedQueries below, but
// yielding workload.Query with parsed paths for the timing loops, which
// never go through the Estimator seam). Keep the two in lockstep.
func combinedWorkload(cfg Config, b *built) []workload.Query {
	qs := workload.AllSimplePaths(b.pt, 0)
	opt := workload.Options{N: cfg.queries(), Seed: cfg.Seed + 1, RequireNonEmpty: true}
	qs = append(qs, workload.Branching(b.pt, b.ev, opt)...)
	opt.Seed = cfg.Seed + 2
	qs = append(qs, workload.Complex(b.pt, b.ev, opt)...)
	return qs
}

// The accuracy experiments measure every synopsis — XSEED and the
// TreeSketch baseline alike — through the unified xseed.Estimator
// interface, the same surface optimizers code against. With Config.Remote
// set, XSEED estimates are served by a live xseedd via the client SDK
// instead of the embedded adapter; the numbers must not change, only the
// transport.

// measure batch-estimates the workload through an Estimator and
// accumulates error metrics against the queries' exact cardinalities.
func measure(e xseed.Estimator, qs []*xseed.Query) (*metrics.Accumulator, error) {
	strs := make([]string, len(qs))
	for i, q := range qs {
		strs[i] = q.String()
	}
	res, err := e.EstimateBatch(context.Background(), strs)
	if err != nil {
		return nil, err
	}
	var acc metrics.Accumulator
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("estimate %s: %w", strs[i], r.Err)
		}
		actual, _ := qs[i].Actual()
		acc.Add(r.Estimate, float64(actual))
	}
	return &acc, nil
}

// sketchEstimator is the TreeSketch baseline as an xseed.Estimator, so the
// accuracy experiments measure it exactly as they measure XSEED. It always
// runs embedded (xseedd serves XSEED synopses only) and takes no feedback.
type sketchEstimator struct{ syn *treesketch.Synopsis }

func (s sketchEstimator) EstimateBatch(ctx context.Context, queries []string) ([]xseed.Result, error) {
	out := make([]xseed.Result, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		est, err := s.syn.EstimateString(q)
		out[i] = xseed.Result{Query: q, Estimate: est, Err: err}
	}
	return out, nil
}

func (s sketchEstimator) Feedback(context.Context, string, float64) error {
	return fmt.Errorf("experiments: baseline estimator accepts no feedback")
}

func (s sketchEstimator) FeedbackBatch(context.Context, []xseed.FeedbackObs) ([]error, error) {
	return nil, fmt.Errorf("experiments: baseline estimator accepts no feedback")
}

// sketchCells builds the TreeSketch baseline of doc within budget once and
// measures it on each workload. A build that exceeds the operation budget
// makes every cell DNF, as in the paper; any other build error returns.
func sketchCells(cfg Config, doc *xmldoc.Document, budget int, workloads ...[]*xseed.Query) ([]Table3Cell, error) {
	syn, _, err := treesketch.Build(doc, treesketch.Options{BudgetBytes: budget, OpBudget: cfg.tsOpBudget(), Seed: cfg.Seed})
	dnf := errors.Is(err, treesketch.ErrDNF)
	if err != nil && !dnf {
		return nil, err
	}
	cells := make([]Table3Cell, len(workloads))
	for i, qs := range workloads {
		if dnf {
			cells[i].DNF = true
			continue
		}
		acc, err := measure(sketchEstimator{syn}, qs)
		if err != nil {
			return nil, err
		}
		cells[i] = cell(acc)
	}
	return cells, nil
}

// estimatorFor selects the measurement backend for an XSEED synopsis: the
// embedded adapter, or — when cfg.Remote is set — the client SDK bound to
// a fresh snapshot upload of the synopsis on the remote daemon. cleanup
// unregisters the upload.
func (c Config) estimatorFor(name string, syn *xseed.Synopsis) (est xseed.Estimator, cleanup func(), err error) {
	if c.Remote == "" {
		return xseed.NewLocalEstimator(syn), func() {}, nil
	}
	cl, err := client.New(c.Remote)
	if err != nil {
		return nil, nil, err
	}
	var blob bytes.Buffer
	if _, err := syn.WriteTo(&blob); err != nil {
		return nil, nil, err
	}
	if _, err := cl.SnapshotPut(context.Background(), name, &blob); err != nil {
		return nil, nil, fmt.Errorf("upload %q to %s: %w", name, c.Remote, err)
	}
	return cl.Synopsis(name), func() { cl.Delete(context.Background(), name) }, nil
}

// scaledSpec applies the configured scale to a paper spec's
// scale-proportional knobs (CARD_THRESHOLD tracks dataset cardinalities).
func scaledSpec(cfg Config, spec DatasetSpec) DatasetSpec {
	spec.CardThreshold *= cfg.scale()
	return spec
}

// rootDataset generates the dataset at the configured scale through the
// public API; accuracy experiments build synopses and workloads from it.
func rootDataset(cfg Config, spec DatasetSpec) (*xseed.Document, error) {
	return xseed.Generate(spec.Generator, spec.Factor*cfg.scale(), cfg.Seed)
}

// synopsisWithBudget builds the paper's accuracy-experiment synopsis (1BP
// HET) whose total size — kernel plus resident HET — fits totalBudget
// bytes; totalBudget 0, or one too small to leave HET room, builds
// kernel-only.
func synopsisWithBudget(d *xseed.Document, spec DatasetSpec, totalBudget int) (*xseed.Synopsis, error) {
	base := &xseed.Config{CardThreshold: spec.CardThreshold}
	kernelOnly, err := xseed.KernelOnly(d, base)
	if err != nil {
		return nil, err
	}
	if totalBudget == 0 {
		return kernelOnly, nil
	}
	hetBudget := totalBudget - kernelOnly.KernelSizeBytes()
	if hetBudget <= 0 {
		return kernelOnly, nil // no room for any HET
	}
	cfg := *base
	cfg.HET = &xseed.HETConfig{
		MBP:           1,
		BselThreshold: spec.BselThreshold,
		BudgetBytes:   hetBudget,
	}
	return xseed.BuildSynopsis(d, &cfg)
}

// combinedQueries is the Table 3 workload over the public API: all SP
// queries plus N random BP and N random CP queries, each carrying its
// exact cardinality.
func combinedQueries(cfg Config, d *xseed.Document) ([]*xseed.Query, error) {
	qs := d.SimplePathQueries(0)
	bp, err := d.RandomWorkload("BP", cfg.queries(), 0, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	cp, err := d.RandomWorkload("CP", cfg.queries(), 0, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	qs = append(qs, bp...)
	return append(qs, cp...), nil
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
