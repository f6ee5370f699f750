package xseed

// Micro-benchmarks of the primitive operations (construction, estimation,
// exact evaluation, serialization) that the paper's timing claims rest on.
// The per-table/figure experiment benchmarks live in
// bench_experiments_test.go (external test package).

import (
	"bytes"
	"testing"

	"xseed/internal/counterstack"
	"xseed/internal/estimate"
	"xseed/internal/het"
	"xseed/internal/kernel"
	"xseed/internal/nok"
	"xseed/internal/treesketch"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// --- Micro-benchmarks -----------------------------------------------------

// benchDoc loads a moderately sized XMark sample shared by the
// micro-benchmarks.
func benchDoc(b *testing.B) *Document {
	b.Helper()
	d, err := Generate("xmark", 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkKernelConstruction measures Algorithm 1 over the document's
// event stream (the paper's negligible kernel construction time).
func BenchmarkKernelConstruction(b *testing.B) {
	d := benchDoc(b)
	var src xmldoc.Source = docSource{d}
	dict := d.doc.Dict()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernel.Build(src, dict); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.NumNodes()), "nodes/op")
}

type docSource struct{ d *Document }

func (s docSource) Emit(dict *xmldoc.Dict, sink xmldoc.Sink) error {
	return s.d.doc.Emit(dict, sink)
}

// BenchmarkEPTBuild measures unfolding the kernel into the expanded path
// tree — the dominant per-estimate cost without caching.
func BenchmarkEPTBuild(b *testing.B) {
	d := benchDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root, st := estimate.BuildEPT(d.kern, estimate.Options{})
		if root == nil || st.Nodes == 0 {
			b.Fatal("empty EPT")
		}
	}
}

// Estimation benchmarks per query class, EPT regenerated per estimate as in
// the paper's timing experiments.
func benchEstimate(b *testing.B, query string) {
	d := benchDoc(b)
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := MustParseQuery(query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn.EstimateQuery(q)
	}
}

func BenchmarkEstimateSP(b *testing.B) {
	benchEstimate(b, "/site/open_auctions/open_auction/bidder")
}

func BenchmarkEstimateBP(b *testing.B) {
	benchEstimate(b, "/site/regions/australia/item[shipping]/location")
}

func BenchmarkEstimateCP(b *testing.B) {
	benchEstimate(b, "//open_auction[bidder/personref]//description")
}

func BenchmarkEstimateRecursiveCP(b *testing.B) {
	d, err := Generate("treebank", 0.005, 1)
	if err != nil {
		b.Fatal(err)
	}
	syn, err := KernelOnly(d, &Config{CardThreshold: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := MustParseQuery("//NP//NP//NN")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn.EstimateQuery(q)
	}
}

// BenchmarkActualEvaluation measures the NoK exact evaluator — the
// denominator of the paper's Section 6.4 time ratio.
func BenchmarkActualEvaluation(b *testing.B) {
	d := benchDoc(b)
	ev := nok.New(d.doc)
	q := xpath.MustParse("//open_auction[bidder/personref]//description")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Count(q)
	}
	b.ReportMetric(float64(d.NumNodes()), "nodes/op")
}

// BenchmarkHETPrecompute1BP measures hyper-edge table pre-computation
// (Table 2's second construction column) on the ×0.01 documents at the
// default bsel threshold. XMark has no branching candidate there, so its
// run times the simple-path walk alone; DBLP has 87 candidates, and
// treebank, at the paper's card threshold of 20, 2,249.
func BenchmarkHETPrecompute1BP(b *testing.B) {
	for _, c := range []struct {
		dataset string
		card    float64
	}{{"xmark", 0}, {"dblp", 0}, {"treebank", 20}} {
		b.Run(c.dataset, func(b *testing.B) {
			d, err := Generate(c.dataset, 0.01, 1)
			if err != nil {
				b.Fatal(err)
			}
			opt := het.PrecomputeOptions{MBP: 1, EstimateOptions: estimate.Options{CardThreshold: c.card}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab, _ := het.Precompute(d.doc, d.pt, d.kern, opt)
				if tab.NumEntries() == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkFeedbackPublish is one feedback round of the served read-write
// shape (treebankSynopsis): 16 simple-path feedbacks that each change a
// resident card, then Publish and EPTStats — the expanded path tree the
// next estimate would build. Its B/op is what keeping the estimator current
// allocates per round.
func BenchmarkFeedbackPublish(b *testing.B) {
	syn, qs := treebankSynopsis(b)
	syn.EPTStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			n := i*16 + j
			// Every card fed back is new to its path: n grows past any
			// earlier feedback, and the half keeps it off actual counts.
			syn.FeedbackQueryDeltaDeferred(qs[n%len(qs)], float64(n)+0.5)
		}
		syn.Publish()
		syn.EPTStats()
	}
}

// BenchmarkTreeSketchBuild measures baseline construction at a 25KB budget.
func BenchmarkTreeSketchBuild(b *testing.B) {
	d := benchDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treesketch.Build(d.doc, treesketch.Options{BudgetBytes: 25 * 1024}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynopsisSerialize measures WriteTo+ReadSynopsis round trips.
func BenchmarkSynopsisSerialize(b *testing.B) {
	d := benchDoc(b)
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := syn.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadSynopsis(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// csSink drives a counter stack from document events.
type csSink struct {
	cs  *counterstack.Stack[xmldoc.LabelID]
	max int
}

func (s *csSink) OpenElement(l xmldoc.LabelID) {
	s.cs.Push(l)
	if lvl := s.cs.Level(); lvl > s.max {
		s.max = lvl
	}
}

func (s *csSink) CloseElement(l xmldoc.LabelID) { s.cs.Pop(l) }

// BenchmarkCounterStackTraversal measures recursion-level bookkeeping over
// a full document pass (the expected-O(1) structure of Figure 3).
func BenchmarkCounterStackTraversal(b *testing.B) {
	d, err := Generate("treebank", 0.005, 1)
	if err != nil {
		b.Fatal(err)
	}
	dict := d.doc.Dict()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &csSink{cs: counterstack.New[xmldoc.LabelID]()}
		if err := d.doc.Emit(dict, sink); err != nil {
			b.Fatal(err)
		}
		if sink.max < 5 {
			b.Fatalf("max recursion level %d, want >= 5", sink.max)
		}
	}
	b.ReportMetric(float64(d.NumNodes()), "nodes/op")
}
