package experiments

import (
	"errors"
	"io"
	"time"

	"xseed/internal/estimate"
	"xseed/internal/het"
	"xseed/internal/treesketch"
)

// Table2Row is one dataset's row of the paper's Table 2: data
// characteristics, XSEED kernel size, and synopsis construction times.
type Table2Row struct {
	Dataset     string
	TextBytes   int64
	Nodes       int64
	AvgRecLevel float64
	MaxRecLevel int

	KernelBytes   int
	KernelTime    time.Duration
	HETTime       time.Duration
	HETEntries    int
	TreeSketchDur time.Duration
	TreeSketchDNF bool
}

// Table2 reproduces the paper's Table 2 on every paper dataset at the
// configured scale.
func Table2(cfg Config, w io.Writer) ([]Table2Row, error) {
	var rows []Table2Row
	fprintf(w, "Table 2: dataset characteristics and synopsis construction (scale %.3g)\n", cfg.scale())
	fprintf(w, "%-12s %10s %9s %7s %4s | %8s %10s %12s %14s\n",
		"Dataset", "size", "#nodes", "avgRec", "max", "kernel", "k-time", "1BP-HET-time", "TreeSketch")
	for _, spec := range PaperDatasets() {
		b, err := buildDataset(cfg, spec)
		if err != nil {
			return rows, err
		}
		row := Table2Row{
			Dataset:     spec.Key,
			TextBytes:   b.docStats.TextBytes,
			Nodes:       b.docStats.Nodes,
			AvgRecLevel: b.docStats.AvgRecLevel,
			MaxRecLevel: b.docStats.MaxRecLevel,
			KernelBytes: b.kern.SizeBytes(),
			KernelTime:  b.kernelBuildTime,
		}

		// 1BP HET construction time (unbounded budget: the paper times the
		// full pre-computation; residency is decided later).
		start := time.Now()
		tab, _ := het.Precompute(b.doc, b.pt, b.kern, het.PrecomputeOptions{
			MBP:             1,
			BselThreshold:   spec.BselThreshold,
			EstimateOptions: estimate.Options{CardThreshold: spec.CardThreshold},
		})
		row.HETTime = time.Since(start)
		row.HETEntries = tab.NumEntries()

		// TreeSketch at a 50KB budget with the operation cutoff.
		start = time.Now()
		_, _, err = treesketch.Build(b.doc, treesketch.Options{
			BudgetBytes: 50 * 1024,
			OpBudget:    cfg.tsOpBudget(),
			Seed:        cfg.Seed,
		})
		row.TreeSketchDur = time.Since(start)
		if err != nil {
			if !errors.Is(err, treesketch.ErrDNF) {
				return rows, err
			}
			row.TreeSketchDNF = true
		}

		tsCol := fmtDur(row.TreeSketchDur)
		if row.TreeSketchDNF {
			tsCol = "DNF"
		}
		fprintf(w, "%-12s %9.1fM %9d %7.2f %4d | %7.1fK %10s %12s %14s\n",
			row.Dataset, float64(row.TextBytes)/1e6, row.Nodes, row.AvgRecLevel,
			row.MaxRecLevel, float64(row.KernelBytes)/1024,
			fmtDur(row.KernelTime), fmtDur(row.HETTime), tsCol)
		rows = append(rows, row)
	}
	return rows, nil
}
