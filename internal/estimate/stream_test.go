package estimate

import (
	"testing"

	"xseed/internal/datagen"
	"xseed/internal/kernel"
	"xseed/internal/pathtree"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

func TestStreamableShapes(t *testing.T) {
	yes := []string{"/a/b", "//a//b", "/a/*[x]/b", "/a/b[x][y]/c", "//a[x]"}
	no := []string{"/a/b[x/y]/c", "/a/b[.//x]/c", "/a/b[*]/c", "/a/b[x[z]]/c"}
	for _, q := range yes {
		if !streamable(xpath.MustParse(q)) {
			t.Errorf("%s should be streamable", q)
		}
	}
	for _, q := range no {
		if streamable(xpath.MustParse(q)) {
			t.Errorf("%s should not be streamable", q)
		}
	}
}

// TestStreamMatchesMaterializedOnFigure2 cross-validates the two matchers
// on the paper's running example across the supported query shapes.
func TestStreamMatchesMaterializedOnFigure2(t *testing.T) {
	_, k, _, _ := fig2(t)
	queries := []string{
		"/a", "/a/c", "/a/c/s", "/a/c/s/p", "/a/c/s/s/t",
		"//s", "//p", "//s//p", "//s//s//p", "//s/p",
		"/a/c/s[t]/p", "/a/c/s[t][p]", "/a/c[p]/s", "/a/c/s[s]",
		"//c[t]/s", "/a/*/t", "//*", "/*",
		"//s[t]/p", "//s[s]/p",
		"/zzz", "//zzz", "/a/c[zzz]/s",
	}
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		want := snap(k, Options{}).Estimate(q)
		got, ok := snap(k, Options{}).StreamEstimate(q)
		if !ok {
			t.Errorf("%s: not streamable", qs)
			continue
		}
		if !approx(got, want, 1e-9) {
			t.Errorf("%s: stream %g != materialized %g", qs, got, want)
		}
	}
}

// TestStreamMatchesMaterializedOnWorkloads cross-validates on generated
// workloads over a real generator: child-only branching queries must agree
// exactly; pred-free complex queries must agree exactly.
func TestStreamMatchesMaterializedOnWorkloads(t *testing.T) {
	src, err := datagen.New(datagen.NameXMark, 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	dict := xmldoc.NewDict()
	kb := kernel.NewBuilder(dict)
	pb := pathtree.NewBuilder(dict)
	doc, err := xmldoc.Build(src, dict, kb, pb)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := kb.Kernel()
	_ = doc

	// All simple paths.
	pb.Tree().Walk(func(n *pathtree.Node) {
		q := n.Query(dict)
		want := snap(k, Options{}).Estimate(q)
		got, ok := snap(k, Options{}).StreamEstimate(q)
		if !ok || !approx(got, want, 1e-6*(1+want)) {
			t.Errorf("%s: stream %g materialized %g ok=%v", q, got, want, ok)
		}
	})

	// Branching (child axes only): exact agreement required.
	for _, qs := range []string{
		"/site/regions/australia/item[shipping]/location",
		"/site/people/person[homepage]/name",
		"/site/people/person[phone][homepage]/emailaddress",
		"/site/open_auctions/open_auction[privacy]/seller",
	} {
		q := xpath.MustParse(qs)
		want := snap(k, Options{}).Estimate(q)
		got, ok := snap(k, Options{}).StreamEstimate(q)
		if !ok || !approx(got, want, 1e-9) {
			t.Errorf("%s: stream %g materialized %g ok=%v", qs, got, want, ok)
		}
	}

	// Pred-free complex paths: exact agreement required.
	for _, qs := range []string{
		"//item/location", "//person//interest", "//description//text",
		"//parlist//parlist", "//open_auction/bidder/increase", "//*/listitem",
	} {
		q := xpath.MustParse(qs)
		want := snap(k, Options{}).Estimate(q)
		got, ok := snap(k, Options{}).StreamEstimate(q)
		if !ok || !approx(got, want, 1e-6*(1+want)) {
			t.Errorf("%s: stream %g materialized %g ok=%v", qs, got, want, ok)
		}
	}
}

// TestStreamBoundedQueues: after EOS the matcher retains no buffered
// contributions (every queue drained by close events).
func TestStreamQueueDrained(t *testing.T) {
	_, k, _, _ := fig2(t)
	q := xpath.MustParse("//s[t]/p")
	m := newStreamMatcher(k.Dict(), q, nil)
	root, _ := BuildEPT(k, Options{})
	tr := NewTraveler(root)
	for {
		evt := tr.NextEvent()
		if evt.Kind == EOSEvent {
			break
		}
		if evt.Kind == OpenEvent {
			m.open(evt)
		} else {
			m.close()
		}
	}
	if len(m.stack) != 0 {
		t.Errorf("stack not drained: %d frames", len(m.stack))
	}
	if m.total <= 0 {
		t.Errorf("total = %g", m.total)
	}
}
