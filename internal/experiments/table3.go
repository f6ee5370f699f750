package experiments

import (
	"fmt"
	"io"

	"xseed/internal/metrics"
	"xseed/internal/xmldoc"
)

// Table3Cell is one (program setting, dataset) cell of the paper's Table 3.
type Table3Cell struct {
	RMSE  float64
	NRMSE float64
	R2    float64
	OPD   float64
	DNF   bool // TreeSketch construction did not finish
}

// Table3Row holds one dataset's results across program settings.
type Table3Row struct {
	Dataset string
	Queries int

	Kernel   Table3Cell // bare XSEED kernel, no HET
	XSeed25  Table3Cell // XSEED within 25KB total
	Sketch25 Table3Cell // TreeSketch within 25KB
	XSeed50  Table3Cell // XSEED within 50KB total
	Sketch50 Table3Cell // TreeSketch within 50KB
}

// table3Datasets are the four datasets the paper lists (full Treebank's
// TreeSketch cannot be constructed, so the paper omits it).
var table3Datasets = []string{"DBLP", "XMark10", "XMark100", "Treebank.05"}

// Table3 reproduces the paper's Table 3: error metrics of the XSEED kernel,
// XSEED and TreeSketch at 25KB and 50KB memory budgets, over the combined
// SP+BP+CP workload. Every estimate flows through the xseed.Estimator
// interface; cfg.Remote serves the XSEED columns from a live xseedd.
func Table3(cfg Config, w io.Writer) ([]Table3Row, error) {
	var rows []Table3Row
	fprintf(w, "Table 3: error metrics, combined SP+BP+CP workload (scale %.3g, %d queries/class)\n",
		cfg.scale(), cfg.queries())
	fprintf(w, "%-12s %6s | %-19s | %-19s %-19s | %-19s %-19s\n",
		"Dataset", "#q", "kernel", "XSEED@25K", "TreeSketch@25K", "XSEED@50K", "TreeSketch@50K")
	for _, key := range table3Datasets {
		spec, ok := specByKey(key)
		if !ok {
			continue
		}
		spec = scaledSpec(cfg, spec)
		d, err := rootDataset(cfg, spec)
		if err != nil {
			return rows, err
		}
		doc, err := generate(cfg, spec, xmldoc.NewDict())
		if err != nil {
			return rows, err
		}
		qs, err := combinedQueries(cfg, d)
		if err != nil {
			return rows, err
		}
		row := Table3Row{Dataset: key, Queries: len(qs)}

		xseedCell := func(budget int, name string) (Table3Cell, error) {
			syn, err := synopsisWithBudget(d, spec, budget)
			if err != nil {
				return Table3Cell{}, err
			}
			est, cleanup, err := cfg.estimatorFor(name, syn)
			if err != nil {
				return Table3Cell{}, err
			}
			defer cleanup()
			acc, err := measure(est, qs)
			if err != nil {
				return Table3Cell{}, err
			}
			return cell(acc), nil
		}
		if row.Kernel, err = xseedCell(0, "t3-"+key+"-kernel"); err != nil {
			return rows, err
		}
		if row.XSeed25, err = xseedCell(25*1024, "t3-"+key+"-25k"); err != nil {
			return rows, err
		}
		if row.XSeed50, err = xseedCell(50*1024, "t3-"+key+"-50k"); err != nil {
			return rows, err
		}

		s25, err := sketchCells(cfg, doc, 25*1024, qs)
		if err != nil {
			return rows, err
		}
		s50, err := sketchCells(cfg, doc, 50*1024, qs)
		if err != nil {
			return rows, err
		}
		row.Sketch25, row.Sketch50 = s25[0], s50[0]

		fprintf(w, "%-12s %6d | %-19s | %-19s %-19s | %-19s %-19s\n",
			row.Dataset, row.Queries,
			renderCell(row.Kernel), renderCell(row.XSeed25), renderCell(row.Sketch25),
			renderCell(row.XSeed50), renderCell(row.Sketch50))
		rows = append(rows, row)
	}
	return rows, nil
}

func cell(acc *metrics.Accumulator) Table3Cell {
	return Table3Cell{
		RMSE:  acc.RMSE(),
		NRMSE: acc.NRMSE(),
		R2:    acc.R2(),
		OPD:   acc.OPD(),
	}
}

func renderCell(c Table3Cell) string {
	if c.DNF {
		return "DNF"
	}
	return fmt.Sprintf("%.1f (%.2f%%)", c.RMSE, c.NRMSE*100)
}
