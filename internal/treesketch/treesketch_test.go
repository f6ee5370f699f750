package treesketch

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"xseed/internal/fixtures"
	"xseed/internal/nok"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func buildDoc(t *testing.T, xml string) *xmldoc.Document {
	t.Helper()
	doc, err := xmldoc.Parse(xml)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// uniformDoc: every x has exactly 2 y children and 1 z child; every y has 3
// w children. The count-stable partition has one cluster per label and all
// estimates are exact.
const uniformDoc = `<r>
  <x><y><w/><w/><w/></y><y><w/><w/><w/></y><z/></x>
  <x><y><w/><w/><w/></y><y><w/><w/><w/></y><z/></x>
  <x><y><w/><w/><w/></y><y><w/><w/><w/></y><z/></x>
</r>`

func TestExactOnCountStableDocument(t *testing.T) {
	doc := buildDoc(t, uniformDoc)
	syn, stats, err := Build(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DNF {
		t.Fatal("unexpected DNF")
	}
	// Uniform structure: refinement must not split beyond label-split.
	if stats.StableClusters != stats.InitialClusters {
		t.Errorf("stable %d != initial %d", stats.StableClusters, stats.InitialClusters)
	}
	ev := nok.New(doc)
	for _, q := range []string{
		"/r", "/r/x", "/r/x/y", "/r/x/y/w", "/r/x/z",
		"/r/x[z]/y", "/r/x[y]/z", "//y/w", "//w", "//x//w",
	} {
		actual, _ := ev.CountString(q)
		got, err := syn.EstimateString(q)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, float64(actual), 1e-9) {
			t.Errorf("|%s| = %g, actual %d", q, got, actual)
		}
	}
}

func TestRefinementSplitsHeterogeneousClusters(t *testing.T) {
	// Two kinds of x: with and without y children. Count-stability must
	// split them, making /r/x[y]/z exact even though bare label-split
	// would blur it.
	xml := `<r>
	  <x><y/><z/></x><x><y/><z/></x>
	  <x><z/><z/><z/></x>
	</r>`
	doc := buildDoc(t, xml)
	syn, stats, err := Build(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StableClusters <= stats.InitialClusters {
		t.Errorf("no split: stable %d, initial %d", stats.StableClusters, stats.InitialClusters)
	}
	ev := nok.New(doc)
	for _, q := range []string{"/r/x[y]/z", "/r/x/z", "//z"} {
		actual, _ := ev.CountString(q)
		got, _ := syn.EstimateString(q)
		if !approx(got, float64(actual), 1e-9) {
			t.Errorf("|%s| = %g, actual %d", q, got, actual)
		}
	}
}

func TestMergingToBudget(t *testing.T) {
	// A document with many structurally distinct x nodes; a tight budget
	// forces merging, size must land at or below budget (or the label-split
	// floor), and estimates remain sane.
	var sb strings.Builder
	rng := rand.New(rand.NewSource(5))
	sb.WriteString("<r>")
	for i := 0; i < 200; i++ {
		sb.WriteString("<x>")
		for j := rng.Intn(5); j > 0; j-- {
			sb.WriteString("<y/>")
		}
		for j := rng.Intn(3); j > 0; j-- {
			sb.WriteString("<z/>")
		}
		sb.WriteString("</x>")
	}
	sb.WriteString("</r>")
	doc := buildDoc(t, sb.String())

	big, statsBig, err := Build(doc, Options{BudgetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	small, statsSmall, err := Build(doc, Options{BudgetBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if statsSmall.Merges == 0 {
		t.Error("tight budget forced no merges")
	}
	if small.SizeBytes() >= big.SizeBytes() {
		t.Errorf("small %d >= big %d", small.SizeBytes(), big.SizeBytes())
	}
	if small.SizeBytes() > 128 && small.NumClusters() > 4 {
		t.Errorf("size %d exceeds budget without reaching label floor (%d clusters)",
			small.SizeBytes(), small.NumClusters())
	}
	// Totals are preserved by merging: //y count is exact regardless.
	ev := nok.New(doc)
	actual, _ := ev.CountString("//y")
	got, _ := small.EstimateString("//y")
	if !approx(got, float64(actual), 1e-6) {
		t.Errorf("|//y| after merge = %g, actual %d", got, actual)
	}
	got, _ = small.EstimateString("/r/x")
	actualX, _ := ev.CountString("/r/x")
	if !approx(got, float64(actualX), 1e-6) {
		t.Errorf("|/r/x| after merge = %g, actual %d", got, actualX)
	}
	_ = statsBig
}

// TestFigure2DescendantExact: with room for the whole count-stable
// partition, the baseline estimates //p on the paper's Figure 2 document
// exactly.
func TestFigure2DescendantExact(t *testing.T) {
	doc := buildDoc(t, fixtures.PaperFigure2)
	syn, stats, err := Build(doc, Options{BudgetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DNF {
		t.Error("unexpected DNF")
	}
	got, err := syn.EstimateString("//p")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 17, 1e-6) {
		t.Errorf("|//p| = %g, want 17 (exact under count-stability)", got)
	}
	if syn.SizeBytes() <= 0 {
		t.Error("SizeBytes = 0")
	}
}

func TestDNFOnOpBudget(t *testing.T) {
	doc := buildDoc(t, fixtures.PaperFigure2)
	_, stats, err := Build(doc, Options{OpBudget: 10})
	if err != ErrDNF {
		t.Fatalf("err = %v, want ErrDNF", err)
	}
	if !stats.DNF {
		t.Error("stats.DNF not set")
	}
}

func TestRecursiveDocumentTerminationAndBias(t *testing.T) {
	// Deep single-label recursion: the summary has an s→s self loop; //s//s
	// estimation must terminate and (unlike XSEED) cannot recover recursion
	// levels.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 30; i++ {
		sb.WriteString("<s>")
	}
	for i := 0; i < 30; i++ {
		sb.WriteString("</s>")
	}
	sb.WriteString("</r>")
	doc := buildDoc(t, sb.String())
	syn, _, err := Build(doc, Options{BudgetBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := syn.EstimateString("//s//s")
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("estimate = %v", got)
	}
	if got <= 0 {
		t.Errorf("|//s//s| = %g, want > 0", got)
	}
}

func TestEstimateUnknownLabel(t *testing.T) {
	doc := buildDoc(t, uniformDoc)
	syn, _, err := Build(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := syn.EstimateString("//nope"); got != 0 {
		t.Errorf("unknown label = %g", got)
	}
	if got := syn.Estimate(&xpath.Path{}); got != 0 {
		t.Errorf("empty query = %g", got)
	}
}

func TestWildcardEstimates(t *testing.T) {
	doc := buildDoc(t, uniformDoc)
	syn, _, err := Build(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := nok.New(doc)
	for _, q := range []string{"//*", "/r/*", "/r/x/*"} {
		actual, _ := ev.CountString(q)
		got, _ := syn.EstimateString(q)
		if !approx(got, float64(actual), 1e-9) {
			t.Errorf("|%s| = %g, actual %d", q, got, actual)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	doc := buildDoc(t, fixtures.PaperFigure2)
	a, _, err := Build(doc, Options{BudgetBytes: 96, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Build(doc, Options{BudgetBytes: 96, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//s//p", "/a/c/s", "//t"} {
		ea, _ := a.EstimateString(q)
		eb, _ := b.EstimateString(q)
		if ea != eb {
			t.Errorf("%s: nondeterministic %g vs %g", q, ea, eb)
		}
	}
}

func TestEmptyDocumentRejected(t *testing.T) {
	dict := xmldoc.NewDict()
	b := xmldoc.NewBuilder(dict)
	if _, err := b.Document(); err == nil {
		t.Skip("builder unexpectedly produced empty document")
	}
}
