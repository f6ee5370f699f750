package estimate

import (
	"math/rand"
	"testing"

	"xseed/internal/kernel"
	"xseed/internal/nok"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// TestDescendantLabelCountExactNonRecursive verifies an exactness invariant
// of the estimator on NON-recursive documents: |//L| is estimated exactly
// by the bare kernel, because every path's recursion level is 0 and the
// forward selectivities of the rooted paths ending at a vertex sum to 1,
// telescoping the EPT cards to the vertex's total child-count (the argument
// behind the paper's Observation 3).
//
// The restriction is essential and genuinely informative: on recursive
// documents the invariant FAILS when recursion levels alias across labels —
// e.g. <a><b><d><a><d><c><c/></c></d></a></d></b></a> estimates |//c| as
// 1.5, because the rooted path to the outer c reaches recursion level 1
// through a/d repetition while (c,c) recursion also sits at level 1,
// splitting S(c,1) across unrelated paths. This is a real information loss
// of the kernel summary (and more grist for the HET), not an estimator bug.
func TestDescendantLabelCountExactNonRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Labels are keyed by depth, so no label repeats on any rooted path and
	// every recursion level is 0.
	depthLabels := []string{"r", "s", "t", "u", "v", "w", "x"}
	for trial := 0; trial < 120; trial++ {
		var sb []byte
		var gen func(depth int)
		gen = func(depth int) {
			l := depthLabels[depth]
			sb = append(sb, "<"+l+">"...)
			if depth < len(depthLabels)-1 {
				for i := 0; i < rng.Intn(4); i++ {
					gen(depth + 1)
				}
			}
			sb = append(sb, "</"+l+">"...)
		}
		gen(0)
		xml := string(sb)
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
		for _, l := range depthLabels {
			q := xpath.MustParse("//" + l)
			got := snap(k, Options{}).Estimate(q)
			want := float64(ev.Count(q))
			if !approx(got, want, 1e-6*(1+want)) {
				t.Fatalf("trial %d: |//%s| = %g, want %g\ndoc: %s", trial, l, got, want, xml)
			}
		}
		// The wildcard total is exact too: |//*| = node count.
		got := snap(k, Options{}).Estimate(xpath.MustParse("//*"))
		if want := float64(doc.NumNodes()); !approx(got, want, 1e-6*(1+want)) {
			t.Fatalf("trial %d: |//*| = %g, want %g", trial, got, want)
		}
	}
}

// TestLevelAliasingCounterexample pins the minimal counterexample above: a
// recursive document where |//c| is misestimated by the bare kernel and
// repaired by HET path entries (which is how the system handles this class
// of error in practice).
func TestLevelAliasingCounterexample(t *testing.T) {
	const xml = "<a><b><d><a><d><c><c/></c></d></a></d></b></a>"
	dict := xmldoc.NewDict()
	doc, err := xmldoc.Build(xmldoc.NewParserString(xml), dict)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Build(xmldoc.NewParserString(xml), dict)
	if err != nil {
		t.Fatal(err)
	}
	got := snap(k, Options{}).Estimate(xpath.MustParse("//c"))
	if approx(got, 2, 1e-9) {
		t.Fatalf("|//c| = %g; expected the documented 1.5 misestimate — "+
			"if the kernel got smarter, update the invariant docs", got)
	}
	if !approx(got, 1.5, 1e-9) {
		t.Errorf("|//c| = %g, expected exactly 1.5", got)
	}
	_ = doc
}

// TestObservation3Property generalizes the paper's Observation 3 to random
// recursive documents: for any pair of labels (u, v) with an edge in the
// kernel, the sum of (u,v) child-counts at recursion levels >= 1 equals the
// exact count of //u//u-contexts... stated operationally: |//u//v| computed
// by the estimator equals the exact count whenever v-nodes' parents are
// always u-nodes (then every chain is captured by the single edge).
func TestObservation3Property(t *testing.T) {
	// Construct documents where v only ever appears under u, then check
	// |//u//v| is exact.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		// u-chains of random depth with v-leaves.
		var build func(depth int) string
		build = func(depth int) string {
			s := "<u>"
			for i := 0; i < 1+rng.Intn(2); i++ {
				s += "<v/>"
			}
			if depth > 0 && rng.Intn(2) == 0 {
				s += build(depth - 1)
			}
			return s + "</u>"
		}
		xml := "<r>" + build(rng.Intn(5)) + build(rng.Intn(3)) + "</r>"
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
		for _, qs := range []string{"//u//v", "//u//u", "//u/v"} {
			q := xpath.MustParse(qs)
			got := snap(k, Options{}).Estimate(q)
			want := float64(ev.Count(q))
			if !approx(got, want, 1e-6*(1+want)) {
				t.Fatalf("trial %d: |%s| = %g, want %g\ndoc: %s", trial, qs, got, want, xml)
			}
		}
	}
}

// TestEstimateNonNegativeAndFinite: estimates are always finite and
// non-negative for arbitrary random queries on random documents.
func TestEstimateNonNegativeAndFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	labels := []string{"a", "b", "c"}
	axes := []string{"/", "//"}
	for trial := 0; trial < 150; trial++ {
		xml := randomXML(rng, labels, 5, 3)
		dict := xmldoc.NewDict()
		k, err := kernel.Build(xmldoc.NewParserString(xml), dict)
		if err != nil {
			t.Fatal(err)
		}
		// Random query.
		qs := ""
		for i := 0; i < 1+rng.Intn(4); i++ {
			qs += axes[rng.Intn(2)] + labels[rng.Intn(len(labels))]
			if rng.Intn(3) == 0 {
				qs += "[" + labels[rng.Intn(len(labels))] + "]"
			}
		}
		q, err := xpath.Parse(qs)
		if err != nil {
			t.Fatalf("generated bad query %q: %v", qs, err)
		}
		got := snap(k, Options{}).Estimate(q)
		if got < 0 || got != got /* NaN */ {
			t.Fatalf("trial %d: |%s| = %v\ndoc: %s", trial, qs, got, xml)
		}
	}
}
