package experiments

import (
	"io"
	"time"

	"xseed/internal/estimate"
	"xseed/internal/workload"
)

// workloadQuery aliases the workload entry for readability here.
type workloadQuery = workload.Query

// Section64Row is one dataset's entry in the paper's Section 6.4
// efficiency results: EPT size relative to the document, and estimation
// time relative to actual query evaluation time.
type Section64Row struct {
	Dataset string
	Queries int

	EPTNodes     int
	DocNodes     int64
	EPTRatio     float64 // EPT nodes / document nodes
	AvgEstimate  time.Duration
	AvgActual    time.Duration
	TimeRatioPct float64 // 100 × estimate / actual
}

// Section64 reproduces the paper's Section 6.4: the estimation algorithm's
// cost. The paper reports EPT sizes of 0.0035%-0.05% for DBLP/XMark and
// 5.5-6.9% for Treebank (with CARD_THRESHOLD 20), and estimation times
// between 0.018% and 2% of actual query evaluation.
func Section64(cfg Config, w io.Writer) ([]Section64Row, error) {
	var rows []Section64Row
	fprintf(w, "Section 6.4: estimation efficiency (scale %.3g)\n", cfg.scale())
	fprintf(w, "%-12s %6s %10s %10s %9s %12s %12s %9s\n",
		"Dataset", "#q", "EPTnodes", "docNodes", "EPT%", "est-time", "query-time", "ratio%")
	for _, spec := range PaperDatasets() {
		b, err := buildDataset(cfg, spec)
		if err != nil {
			return rows, err
		}
		qs := combinedWorkload(cfg, b)
		if len(qs) == 0 {
			continue
		}
		// Timing needs a bounded sample: recursive datasets have tens of
		// thousands of SP queries and the actual-evaluation side scans the
		// whole document per query. Deterministic stride sampling keeps the
		// class mix.
		const maxTimed = 400
		if len(qs) > maxTimed {
			stride := len(qs) / maxTimed
			sampled := make([]workloadQuery, 0, maxTimed)
			for i := 0; i < len(qs) && len(sampled) < maxTimed; i += stride {
				sampled = append(sampled, qs[i])
			}
			qs = sampled
		}

		// Estimation per the paper: the traveler regenerates the EPT per
		// query (a fresh snapshot each), with the dataset's CARD_THRESHOLD.
		eopt := estimate.Options{CardThreshold: spec.CardThreshold}
		var sn *estimate.Snapshot
		start := time.Now()
		for _, q := range qs {
			sn = estimate.NewSnapshot(b.kern, b.kern.Dict(), eopt)
			sn.Estimate(q.Path)
		}
		estTime := time.Since(start) / time.Duration(len(qs))
		eptNodes := sn.Stats().Nodes

		start = time.Now()
		for _, q := range qs {
			b.ev.Count(q.Path)
		}
		actTime := time.Since(start) / time.Duration(len(qs))

		row := Section64Row{
			Dataset:     spec.Key,
			Queries:     len(qs),
			EPTNodes:    eptNodes,
			DocNodes:    b.docStats.Nodes,
			EPTRatio:    float64(eptNodes) / float64(b.docStats.Nodes),
			AvgEstimate: estTime,
			AvgActual:   actTime,
		}
		if actTime > 0 {
			row.TimeRatioPct = 100 * float64(estTime) / float64(actTime)
		}
		fprintf(w, "%-12s %6d %10d %10d %8.4f%% %12s %12s %8.3f%%\n",
			row.Dataset, row.Queries, row.EPTNodes, row.DocNodes, row.EPTRatio*100,
			row.AvgEstimate.Round(time.Microsecond), row.AvgActual.Round(time.Microsecond),
			row.TimeRatioPct)
		rows = append(rows, row)
	}
	return rows, nil
}
