package estimate

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"xseed/internal/fixtures"
	"xseed/internal/kernel"
	"xseed/internal/nok"
	"xseed/internal/pathhash"
	"xseed/internal/pathtree"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

func pathHash(labels ...string) uint32 { return pathhash.Path(labels...) }

func patternHash(p string, preds []string, next string) uint32 {
	return pathhash.Pattern(p, preds, next)
}

// fig2 builds the Figure 2 document, kernel, path tree and evaluator.
func fig2(t *testing.T) (*xmldoc.Document, *kernel.Kernel, *pathtree.Tree, *nok.Evaluator) {
	t.Helper()
	dict := xmldoc.NewDict()
	kb := kernel.NewBuilder(dict)
	pb := pathtree.NewBuilder(dict)
	doc, err := xmldoc.Build(xmldoc.NewParserString(fixtures.PaperFigure2), dict, kb, pb)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kb.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return doc, k, pb.Tree(), nok.New(doc)
}

func fig4(t *testing.T) (*xmldoc.Document, *kernel.Kernel, *nok.Evaluator) {
	t.Helper()
	dict := xmldoc.NewDict()
	kb := kernel.NewBuilder(dict)
	doc, err := xmldoc.Build(xmldoc.NewParserString(fixtures.PaperFigure4), dict, kb)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kb.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return doc, k, nok.New(doc)
}

// findEPT walks the EPT along a label-name path (first matching child).
func findEPT(dict *xmldoc.Dict, root *EPTNode, names ...string) *EPTNode {
	n := root
	if len(names) == 0 || dict.Name(root.Label) != names[0] {
		return nil
	}
	for _, name := range names[1:] {
		var next *EPTNode
		for _, c := range n.Children {
			if dict.Name(c.Label) == name {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		n = next
	}
	return n
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// snap returns a fresh estimation snapshot of k: every estimate through it
// regenerates the EPT, as the paper's per-query traveler does.
func snap(k *kernel.Kernel, opt Options) *Snapshot { return NewSnapshot(k, k.Dict(), opt) }

// estimateString parses q and estimates it against a fresh snapshot of k.
func estimateString(k *kernel.Kernel, opt Options, q string) (float64, error) {
	p, err := xpath.Parse(q)
	if err != nil {
		return 0, err
	}
	return snap(k, opt).Estimate(p), nil
}

// TestExample3Trace reproduces the estimation trace of the paper's
// Example 3 for /a/c/s/s/t: per-vertex cardinality, fsel, and bsel.
func TestExample3Trace(t *testing.T) {
	_, k, _, _ := fig2(t)
	root, _ := BuildEPT(k, Options{})
	want := []struct {
		path             []string
		card, fsel, bsel float64
	}{
		{[]string{"a"}, 1, 1, 1},
		{[]string{"a", "c"}, 2, 1, 1},
		{[]string{"a", "c", "s"}, 5, 1, 1},
		{[]string{"a", "c", "s", "s"}, 2, 1, 0.4},
		{[]string{"a", "c", "s", "s", "t"}, 1, 1, 0.5},
	}
	for _, w := range want {
		n := findEPT(k.Dict(), root, w.path...)
		if n == nil {
			t.Fatalf("EPT misses path %v", w.path)
		}
		if !approx(n.Card, w.card, 1e-12) || !approx(n.Fsel, w.fsel, 1e-12) || !approx(n.Bsel, w.bsel, 1e-12) {
			t.Errorf("path %v: card=%g fsel=%g bsel=%g, want %g %g %g",
				w.path, n.Card, n.Fsel, n.Bsel, w.card, w.fsel, w.bsel)
		}
	}
	if got, _ := estimateString(k, Options{}, "/a/c/s/s/t"); !approx(got, 1, 1e-12) {
		t.Errorf("|/a/c/s/s/t| = %g, want 1", got)
	}
}

// TestSection4EPTDump reproduces the expanded path tree XML of Section 4.
func TestSection4EPTDump(t *testing.T) {
	_, k, _, _ := fig2(t)
	got := DumpEPTXML(k, Options{})
	want := strings.Join([]string{
		`<a dID="1." card="1" fsel="1" bsel="1">`,
		`  <t dID="1.1." card="1" fsel="0.2" bsel="1"/>`,
		`  <u dID="1.2." card="1" fsel="1" bsel="1"/>`,
		`  <c dID="1.3." card="2" fsel="1" bsel="1">`,
		`    <t dID="1.3.1." card="2" fsel="0.4" bsel="1"/>`,
		`    <p dID="1.3.2." card="3" fsel="0.25" bsel="1"/>`,
		`    <s dID="1.3.3." card="5" fsel="1" bsel="1">`,
		`      <t dID="1.3.3.1." card="2" fsel="0.4" bsel="0.4"/>`,
		`      <p dID="1.3.3.2." card="9" fsel="0.75" bsel="1"/>`,
		`      <s dID="1.3.3.3." card="2" fsel="1" bsel="0.4">`,
		`        <t dID="1.3.3.3.1." card="1" fsel="1" bsel="0.5"/>`,
		`        <p dID="1.3.3.3.2." card="2" fsel="1" bsel="0.5"/>`,
		`        <s dID="1.3.3.3.3." card="2" fsel="1" bsel="0.5">`,
		`          <p dID="1.3.3.3.3.1." card="3" fsel="1" bsel="1"/>`,
		`        </s>`,
		`      </s>`,
		`    </s>`,
		`  </c>`,
		`</a>`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("EPT dump mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSimplePathsExactOnFigure2 checks that every simple path estimate on
// Figure 2 is exact: the document's label-sharing happens to satisfy the
// ancestor independence assumption, so fsel stays 1 along every path and
// the kernel reproduces all path tree cardinalities.
func TestSimplePathsExactOnFigure2(t *testing.T) {
	_, k, pt, _ := fig2(t)
	pt.Walk(func(n *pathtree.Node) {
		q := n.Query(pt.Dict())
		got := snap(k, Options{}).Estimate(q)
		if !approx(got, float64(n.Card), 1e-9) {
			t.Errorf("|%s| = %g, want %d", q, got, n.Card)
		}
	})
}

// TestExample4 reproduces |b/d/e| ≈ 7.14 on the Figure 4 kernel: the
// ancestor-independence approximation.
func TestExample4(t *testing.T) {
	_, k, _ := fig4(t)
	got, err := estimateString(k, Options{}, "/a/b/d/e")
	if err != nil {
		t.Fatal(err)
	}
	want := 20.0 * 5.0 / 14.0
	if !approx(got, want, 1e-9) {
		t.Errorf("|/a/b/d/e| = %g, want %g", got, want)
	}
	// The symmetric path through c gets the complementary share.
	got, _ = estimateString(k, Options{}, "/a/c/d/e")
	if want := 20.0 * 9.0 / 14.0; !approx(got, want, 1e-9) {
		t.Errorf("|/a/c/d/e| = %g, want %g", got, want)
	}
}

// TestExample5 reproduces |b/d[f]/e| ≈ 2.04 on the Figure 4 kernel: the
// sibling-independence approximation (absel).
func TestExample5(t *testing.T) {
	_, k, _ := fig4(t)
	got, err := estimateString(k, Options{}, "/a/b/d[f]/e")
	if err != nil {
		t.Fatal(err)
	}
	want := 20.0 * (5.0 / 14.0) * (4.0 / 14.0)
	if !approx(got, want, 1e-9) {
		t.Errorf("|/a/b/d[f]/e| = %g, want %g", got, want)
	}
}

func TestBranchingOnFigure2(t *testing.T) {
	_, k, _, ev := fig2(t)
	// /a/c/s[t]/p: |/a/c/s/p| × bsel(s→t at level 0) = 9 × 0.4 = 3.6
	// (actual 4).
	got, _ := estimateString(k, Options{}, "/a/c/s[t]/p")
	if !approx(got, 3.6, 1e-9) {
		t.Errorf("|/a/c/s[t]/p| = %g, want 3.6", got)
	}
	actual, _ := ev.CountString("/a/c/s[t]/p")
	if actual != 4 {
		t.Fatalf("actual = %d, want 4", actual)
	}
	// Predicate on the result step: /a/c/s[s] = 5 × 0.4 = 2 (exact).
	got, _ = estimateString(k, Options{}, "/a/c/s[s]")
	if !approx(got, 2, 1e-9) {
		t.Errorf("|/a/c/s[s]| = %g, want 2", got)
	}
}

func TestComplexPathsOnFigure2(t *testing.T) {
	_, k, _, ev := fig2(t)
	cases := []struct {
		q    string
		want float64 // exact expectations where the kernel preserves them
	}{
		{"//s//s//p", 5}, // Observation 3
		{"//s//p", 14},
		{"//s/p", 14},
		{"//p", 17},
		{"//s", 9},
		{"//s//s", 4},
		{"//*", 36},
		{"/a/*/t", 2},
		{"/*", 1},
	}
	for _, tc := range cases {
		got, err := estimateString(k, Options{}, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, tc.want, 1e-9) {
			t.Errorf("|%s| = %g, want %g", tc.q, got, tc.want)
		}
		actual, _ := ev.CountString(tc.q)
		if int64(tc.want) != actual {
			t.Errorf("fixture drift: actual |%s| = %d, expected %g", tc.q, actual, tc.want)
		}
	}
}

func TestNestedPredicates(t *testing.T) {
	_, k, _, _ := fig2(t)
	// /a/c[s/s]/t: |/a/c/t| × (bsel(c→s) × bsel(s→s under c/s)) = 2 × (1 ×
	// 0.4) = 0.8 (actual 2; sibling/descendant correlation is lost — this
	// is precisely the error class the HET exists to patch).
	got, _ := estimateString(k, Options{}, "/a/c[s/s]/t")
	if !approx(got, 0.8, 1e-9) {
		t.Errorf("|/a/c[s/s]/t| = %g, want 0.8", got)
	}
	// Descendant predicate: /a/c/s[.//t]/p.
	got, _ = estimateString(k, Options{}, "/a/c/s[.//t]/p")
	// weight = bsel(t)+bsel(s)*(bsel(t at s/s)+bsel(s at s/s)*bsel(t at s/s/s... )):
	// = 0.4 + 0.4*(0.5 + 0.5*0) = 0.6; note s/s/s has no t child in the
	// kernel. 9 × 0.6 = 5.4 (actual 6).
	if !approx(got, 5.4, 1e-9) {
		t.Errorf("|/a/c/s[.//t]/p| = %g, want 5.4", got)
	}
}

func TestUnknownLabelsEstimateZero(t *testing.T) {
	_, k, _, _ := fig2(t)
	for _, q := range []string{"/zzz", "//zzz", "/a/zzz", "/a/c[zzz]/s", "/a[zzz]"} {
		if got, _ := estimateString(k, Options{}, q); got != 0 {
			t.Errorf("|%s| = %g, want 0", q, got)
		}
	}
	if _, err := estimateString(k, Options{}, "///"); err == nil {
		t.Error("parse error not propagated")
	}
}

func TestCardThresholdPrunes(t *testing.T) {
	_, k, _, _ := fig2(t)
	full, fullStats := BuildEPT(k, Options{})
	if fullStats.Nodes != 14 {
		t.Fatalf("full EPT = %d nodes, want 14", fullStats.Nodes)
	}
	var count func(n *EPTNode) int
	count = func(n *EPTNode) int {
		total := 1
		for _, c := range n.Children {
			total += count(c)
		}
		return total
	}
	if got := count(full); got != 14 {
		t.Fatalf("full count = %d, want 14", got)
	}
	// With threshold 2, every child of the root has card <= 2 (t=1, u=1,
	// c=2), so only the root (never thresholded) survives.
	pruned, prunedStats := BuildEPT(k, Options{CardThreshold: 2})
	if prunedStats.Nodes != 1 || count(pruned) != 1 {
		t.Errorf("pruned EPT = %d nodes (counted %d), want 1", prunedStats.Nodes, count(pruned))
	}
	// With threshold 1, c (card 2) survives and so do its card>1 children.
	_, st1 := BuildEPT(k, Options{CardThreshold: 1})
	if st1.Nodes <= 1 || st1.Nodes >= 14 {
		t.Errorf("threshold 1 EPT = %d nodes, want in (1,14)", st1.Nodes)
	}
}

func TestMaxEPTNodesTruncates(t *testing.T) {
	// Deep chain: x nested 60 deep.
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		sb.WriteString("<x>")
	}
	for i := 0; i < 60; i++ {
		sb.WriteString("</x>")
	}
	dict := xmldoc.NewDict()
	k, err := kernel.Build(xmldoc.NewParserString(sb.String()), dict)
	if err != nil {
		t.Fatal(err)
	}
	_, st := BuildEPT(k, Options{MaxEPTNodes: 10})
	if !st.Truncated {
		t.Error("truncation not reported")
	}
	if st.Nodes > 10 {
		t.Errorf("EPT has %d nodes, cap 10", st.Nodes)
	}
	// Without a cap the chain unfolds fully and terminates (recursion
	// levels exhaust the edge vector).
	_, st = BuildEPT(k, Options{})
	if st.Truncated {
		t.Error("unexpected truncation")
	}
	if st.Nodes != 60 {
		t.Errorf("EPT = %d nodes, want 60", st.Nodes)
	}
}

func TestTerminationOnCyclicKernel(t *testing.T) {
	// a→b→a cycle in the kernel (document a/b/a/b).
	dict := xmldoc.NewDict()
	k, err := kernel.Build(xmldoc.NewParserString("<a><b><a><b/></a></b></a>"), dict)
	if err != nil {
		t.Fatal(err)
	}
	_, st := BuildEPT(k, Options{})
	if st.Truncated {
		t.Error("cyclic kernel truncated; should terminate via recursion levels")
	}
	if got, _ := estimateString(k, Options{}, "//a//a"); got <= 0 {
		t.Errorf("|//a//a| = %g, want > 0", got)
	}
}

// fakeHET implements the HET interface for tests.
type fakeHET struct {
	paths    map[uint32][3]float64 // card, bsel, bselOK(1/0)
	patterns map[uint32]float64
}

func (f *fakeHET) LookupPath(h uint32) (float64, float64, bool, bool) {
	v, ok := f.paths[h]
	return v[0], v[1], v[2] != 0, ok
}

func (f *fakeHET) LookupPattern(h uint32) (float64, bool) {
	v, ok := f.patterns[h]
	return v, ok
}

func TestHETPathOverride(t *testing.T) {
	// On the Figure 4 document, |/a/b/d/e| actual is 18 but the kernel
	// estimates 7.14; a HET path entry restores exactness.
	_, k, ev := fig4(t)
	actual, _ := ev.CountString("/a/b/d/e")
	if actual != 18 {
		t.Fatalf("fixture drift: actual /a/b/d/e = %d, want 18", actual)
	}
	het := &fakeHET{paths: map[uint32][3]float64{}, patterns: map[uint32]float64{}}
	import1 := func(path ...string) uint32 { return pathHash(path...) }
	het.paths[import1("a", "b", "d", "e")] = [3]float64{18, 0, 0}
	opt := Options{HET: het}
	got, _ := estimateString(k, opt, "/a/b/d/e")
	if !approx(got, 18, 1e-9) {
		t.Errorf("with HET |/a/b/d/e| = %g, want 18", got)
	}
	// Other paths keep kernel estimates.
	got, _ = estimateString(k, opt, "/a/c/d/e")
	if !approx(got, 20.0*9/14, 1e-9) {
		t.Errorf("|/a/c/d/e| = %g, want %g", got, 20.0*9/14)
	}
}

func TestHETPatternOverride(t *testing.T) {
	// Correlated bsel for d[f]/e: |//d[f]/e| / |//d/e| = 8/20 = 0.4.
	_, k, ev := fig4(t)
	if a, _ := ev.CountString("//d[f]/e"); a != 8 {
		t.Fatalf("fixture drift: actual //d[f]/e = %d, want 8", a)
	}
	het := &fakeHET{paths: map[uint32][3]float64{}, patterns: map[uint32]float64{}}
	het.patterns[patternHash("d", []string{"f"}, "e")] = 0.4
	opt := Options{HET: het}
	got, _ := estimateString(k, opt, "/a/b/d[f]/e")
	want := 20.0 * (5.0 / 14.0) * 0.4 // card(/a/b/d/e) × corr-bsel
	if !approx(got, want, 1e-9) {
		t.Errorf("with pattern HET = %g, want %g", got, want)
	}
}

// TestDepth1ExactOnRandomDocs: for any document, the estimate of /root and
// /root/x is exact (no independence assumption applies at depth ≤ 2).
func TestDepth1ExactOnRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 100; trial++ {
		xml := randomXML(rng, labels, 5, 3)
		dict := xmldoc.NewDict()
		doc, err := xmldoc.Build(xmldoc.NewParserString(xml), dict)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.Build(xmldoc.NewParserString(xml), dict)
		if err != nil {
			t.Fatal(err)
		}
		ev := nok.New(doc)
		rootName := doc.LabelName(0)
		for _, l := range labels {
			q := "/" + rootName + "/" + l
			got, _ := estimateString(k, Options{}, q)
			actual, _ := ev.CountString(q)
			if !approx(got, float64(actual), 1e-9) {
				t.Fatalf("trial %d: |%s| = %g, actual %d\ndoc: %s", trial, q, got, actual, xml)
			}
		}
	}
}

// randomXML builds a random small document string (shared shape with the
// kernel package's test helper).
func randomXML(rng *rand.Rand, labels []string, maxDepth, maxFanout int) string {
	var sb strings.Builder
	var gen func(depth int)
	gen = func(depth int) {
		l := labels[rng.Intn(len(labels))]
		sb.WriteString("<" + l + ">")
		if depth < maxDepth {
			for i := 0; i < rng.Intn(maxFanout+1); i++ {
				gen(depth + 1)
			}
		}
		sb.WriteString("</" + l + ">")
	}
	gen(0)
	return sb.String()
}

func TestTravelerEventStream(t *testing.T) {
	_, k, _, _ := fig2(t)
	root, _ := BuildEPT(k, Options{})
	tr := NewTraveler(root)
	opens, closes := 0, 0
	var deweys []string
	for {
		evt := tr.NextEvent()
		if evt.Kind == EOSEvent {
			break
		}
		if evt.Kind == OpenEvent {
			opens++
			deweys = append(deweys, evt.Dewey)
		} else {
			closes++
		}
	}
	if opens != 14 || closes != 14 {
		t.Errorf("events: %d opens %d closes, want 14/14", opens, closes)
	}
	if deweys[0] != "1." {
		t.Errorf("root dewey = %q", deweys[0])
	}
	// Dewey of the deep p: 1.3.3.3.3.1.
	found := false
	for _, d := range deweys {
		if d == "1.3.3.3.3.1." {
			found = true
		}
	}
	if !found {
		t.Errorf("deep dewey missing from %v", deweys)
	}
	// After EOS, the traveler keeps returning EOS.
	if evt := tr.NextEvent(); evt.Kind != EOSEvent {
		t.Error("traveler did not stay at EOS")
	}
}
