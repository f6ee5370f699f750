package xseed

// Ablation benchmarks for three design choices of the synopsis core: the
// counter-stacks structure, the HET's zero-entries for kernel false
// positives, and the CARD_THRESHOLD pruning knob. Each reports accuracy or
// size as benchmark metrics so `go test -bench Ablation` quantifies the
// choice.

import (
	"testing"

	"xseed/internal/counterstack"
	"xseed/internal/estimate"
	"xseed/internal/het"
	"xseed/internal/metrics"
	"xseed/internal/workload"
	"xseed/internal/xmldoc"
)

// BenchmarkAblationCounterStacks compares the paper's counter stacks
// against naive recursion-level recomputation (scan the whole path per
// push) over a full Treebank pass — the reason Figure 3's structure exists.
func BenchmarkAblationCounterStacks(b *testing.B) {
	d, err := Generate("treebank", 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	dict := d.doc.Dict()

	b.Run("counterstacks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := &csSink{cs: counterstack.New[xmldoc.LabelID]()}
			if err := d.doc.Emit(dict, sink); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := &naiveLevelSink{}
			if err := d.doc.Emit(dict, sink); err != nil {
				b.Fatal(err)
			}
			if sink.max < 5 {
				b.Fatal("recursion missing")
			}
		}
	})
}

// naiveLevelSink recomputes the recursion level by scanning the whole path
// on every open event: O(depth) per event instead of expected O(1).
type naiveLevelSink struct {
	path []xmldoc.LabelID
	max  int
}

func (s *naiveLevelSink) OpenElement(l xmldoc.LabelID) {
	s.path = append(s.path, l)
	counts := map[xmldoc.LabelID]int{}
	lvl := 0
	for _, x := range s.path {
		counts[x]++
		if counts[x]-1 > lvl {
			lvl = counts[x] - 1
		}
	}
	if lvl > s.max {
		s.max = lvl
	}
}

func (s *naiveLevelSink) CloseElement(l xmldoc.LabelID) {
	s.path = s.path[:len(s.path)-1]
}

// BenchmarkAblationFalsePositiveEntries quantifies the HET's
// zero-cardinality entries for paths the kernel derives but the document
// lacks: complex-path RMSE on DBLP with and without them.
func BenchmarkAblationFalsePositiveEntries(b *testing.B) {
	d, err := Generate("dblp", 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	qs := workloadCP(b, d, 200)

	for _, ablate := range []bool{false, true} {
		name := "with-zero-entries"
		if ablate {
			name = "without-zero-entries"
		}
		b.Run(name, func(b *testing.B) {
			tab, _ := het.Precompute(d.doc, d.pt, d.kern, het.PrecomputeOptions{
				MBP:                    1,
				NoFalsePositiveEntries: ablate,
			})
			sn := estimate.NewSnapshot(d.kern, d.kern.Dict(), estimate.Options{HET: tab})
			var rmse float64
			for i := 0; i < b.N; i++ {
				var acc metrics.Accumulator
				for _, q := range qs {
					acc.Add(sn.Estimate(q.Path), float64(q.Actual))
				}
				rmse = acc.RMSE()
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationCardThreshold sweeps CARD_THRESHOLD on recursive
// Treebank data: EPT size shrinks sharply while error grows slowly — the
// paper's Section 6.4 heuristic ("this heuristic greatly reduces the size
// of the EPT without causing much error").
func BenchmarkAblationCardThreshold(b *testing.B) {
	d, err := Generate("treebank", 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	qs := workloadCP(b, d, 150)

	for _, tc := range []struct {
		name      string
		threshold float64
	}{
		{"t0", 0}, {"t0.5", 0.5}, {"t2", 2}, {"t8", 8},
	} {
		threshold := tc.threshold
		b.Run(tc.name, func(b *testing.B) {
			// One snapshot per setting: the sweep compares accuracy and EPT
			// size, and a per-query EPT would rebuild a million-node tree
			// per t0 query. The node cap keeps t0 finite — its truncation
			// (ept-nodes pinned at the cap) is precisely why the threshold
			// exists.
			sn := estimate.NewSnapshot(d.kern, d.kern.Dict(), estimate.Options{
				CardThreshold: threshold,
				MaxEPTNodes:   1 << 16,
			})
			var rmse float64
			var nodes int
			for i := 0; i < b.N; i++ {
				var acc metrics.Accumulator
				for _, q := range qs {
					acc.Add(sn.Estimate(q.Path), float64(q.Actual))
				}
				rmse = acc.RMSE()
				nodes = sn.Stats().Nodes
			}
			b.ReportMetric(rmse, "rmse")
			b.ReportMetric(float64(nodes), "ept-nodes")
		})
	}
}

func workloadCP(b *testing.B, d *Document, n int) []workload.Query {
	b.Helper()
	qs := workload.Complex(d.pt, d.ev, workload.Options{
		N: n, Seed: 17, RequireNonEmpty: true,
	})
	if len(qs) == 0 {
		b.Fatal("empty workload")
	}
	return qs
}
