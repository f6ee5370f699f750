package het

import (
	"math"
	"testing"

	"xseed/internal/datagen"
	"xseed/internal/estimate"
	"xseed/internal/fixtures"
	"xseed/internal/kernel"
	"xseed/internal/nok"
	"xseed/internal/pathhash"
	"xseed/internal/pathtree"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// estimateQ estimates q against a fresh snapshot of k, so a table change
// made between two calls reaches the second estimate.
func estimateQ(k *kernel.Kernel, opt estimate.Options, q *xpath.Path) float64 {
	return estimate.NewSnapshot(k, k.Dict(), opt).Estimate(q)
}

// estimateString is estimateQ for query text.
func estimateString(k *kernel.Kernel, opt estimate.Options, q string) float64 {
	return estimateQ(k, opt, xpath.MustParse(q))
}

type built struct {
	doc *xmldoc.Document
	k   *kernel.Kernel
	pt  *pathtree.Tree
	ev  *nok.Evaluator
}

func build(t *testing.T, xml string) built {
	t.Helper()
	return buildSource(t, xmldoc.NewParserString(xml))
}

func buildSource(t testing.TB, src xmldoc.Source) built {
	t.Helper()
	dict := xmldoc.NewDict()
	kb := kernel.NewBuilder(dict)
	pb := pathtree.NewBuilder(dict)
	doc, err := xmldoc.Build(src, dict, kb, pb)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kb.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return built{doc, k, pb.Tree(), nok.New(doc)}
}

func TestTableRankingAndBudget(t *testing.T) {
	tab := New(3 * EntrySize) // room for 3 entries
	tab.AddBatch([]Entry{
		{Hash: 1, Card: 10, Err: 5, BselOK: true, Bsel: 0.5},
		{Hash: 2, Card: 20, Err: 50, BselOK: true, Bsel: 0.5},
		{Hash: 3, Card: 30, Err: 1, BselOK: true, Bsel: 0.5},
		{Hash: 4, Card: 40, Err: 100, BselOK: true, Bsel: 0.5},
		{Hash: 5, Card: 50, Err: 20, BselOK: true, Bsel: 0.5},
	})
	if tab.NumEntries() != 5 || tab.NumResident() != 3 {
		t.Fatalf("entries %d resident %d, want 5/3", tab.NumEntries(), tab.NumResident())
	}
	// Top-3 by error: hashes 4 (100), 2 (50), 5 (20).
	for _, h := range []uint32{4, 2, 5} {
		if _, _, _, ok := tab.LookupPath(h); !ok {
			t.Errorf("hash %d should be resident", h)
		}
	}
	for _, h := range []uint32{1, 3} {
		if _, _, _, ok := tab.LookupPath(h); ok {
			t.Errorf("hash %d should be evicted", h)
		}
	}
	if got := tab.SizeBytes(); got != 3*EntrySize {
		t.Errorf("SizeBytes = %d, want %d", got, 3*EntrySize)
	}
	// Raising the budget admits everything.
	tab.SetBudget(0)
	if tab.NumResident() != 5 {
		t.Errorf("resident after unlimited = %d", tab.NumResident())
	}
	// Shrinking to one entry keeps only the worst offender.
	tab.SetBudget(EntrySize)
	if tab.NumResident() != 1 {
		t.Fatalf("resident = %d, want 1", tab.NumResident())
	}
	if card, _, _, ok := tab.LookupPath(4); !ok || card != 40 {
		t.Errorf("worst entry = %v %v", card, ok)
	}
}

func TestTablePatternVsPathNamespaces(t *testing.T) {
	tab := New(0)
	tab.Add(Entry{Hash: 7, Card: 1, Err: 1})
	tab.Add(Entry{Hash: 7, Pattern: true, Bsel: 0.25, BselOK: true, Err: 2})
	if _, _, _, ok := tab.LookupPath(7); !ok {
		t.Error("path entry lost")
	}
	if bsel, ok := tab.LookupPattern(7); !ok || bsel != 0.25 {
		t.Errorf("pattern entry = %v %v", bsel, ok)
	}
	// Replacement updates in place.
	tab.Add(Entry{Hash: 7, Pattern: true, Bsel: 0.75, BselOK: true, Err: 3})
	if tab.NumEntries() != 2 {
		t.Fatalf("entries = %d, want 2", tab.NumEntries())
	}
	if bsel, _ := tab.LookupPattern(7); bsel != 0.75 {
		t.Errorf("pattern not replaced: %v", bsel)
	}
	// Pattern without valid bsel is not served.
	tab.Add(Entry{Hash: 9, Pattern: true, Bsel: 0.1, BselOK: false, Err: 1})
	if _, ok := tab.LookupPattern(9); ok {
		t.Error("pattern with invalid bsel served")
	}
}

func TestPrecomputePathEntriesFigure2(t *testing.T) {
	b := build(t, fixtures.PaperFigure2)
	tab, stats := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{MBP: 0})
	if stats.PathEntries != 14 {
		t.Errorf("path entries = %d, want 14 (path tree size)", stats.PathEntries)
	}
	if stats.PatternEntries != 0 || stats.Candidates != 0 {
		t.Errorf("MBP=0 built patterns: %+v", stats)
	}
	// Figure 2's simple paths estimate exactly, so every error is 0.
	for _, e := range tab.Entries() {
		if e.Err != 0 {
			t.Errorf("entry %x has error %g on an exact document", e.Hash, e.Err)
		}
	}
	// Lookup of a known path returns the actual card and bsel.
	card, bsel, bselOK, ok := tab.LookupPath(pathhash.Path("a", "c", "s", "s"))
	if !ok || !bselOK || card != 2 || bsel != 0.4 {
		t.Errorf("lookup a/c/s/s = %v %v %v %v", card, bsel, bselOK, ok)
	}
}

func TestPrecomputePatternsFigure2(t *testing.T) {
	b := build(t, fixtures.PaperFigure2)
	tab, stats := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{MBP: 1, BselThreshold: 0.5})
	if stats.PatternEntries != 4 {
		t.Errorf("pattern entries = %d, want 4 (s[t]/p, s[t]/s, s[s]/t, s[s]/p)", stats.PatternEntries)
	}
	bsel, ok := tab.LookupPattern(pathhash.Pattern("s", []string{"t"}, "p"))
	if !ok || !approx(bsel, 4.0/9.0, 1e-12) {
		t.Errorf("corr bsel s[t]/p = %v %v, want 4/9", bsel, ok)
	}
	// With the HET, the branching estimate becomes exact on the dominant
	// rooted path: |/a/c/s[t]/p| = 9 × 4/9 = 4 (actual 4; bare kernel said
	// 3.6).
	opt := estimate.Options{HET: tab}
	got := estimateString(b.k, opt, "/a/c/s[t]/p")
	if !approx(got, 4, 1e-9) {
		t.Errorf("|/a/c/s[t]/p| with HET = %g, want 4", got)
	}
}

// TestPrecomputeFigure4EndToEnd exercises the full Section 5 flow on the
// document whose kernel is Figure 4: path entries repair the ancestor
// independence error of Example 4; pattern entries repair the sibling
// independence error of Example 5.
func TestPrecomputeFigure4EndToEnd(t *testing.T) {
	b := build(t, fixtures.PaperFigure4)
	tab, stats := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{MBP: 1, BselThreshold: 0.5})
	if stats.PathEntries == 0 || stats.PatternEntries == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The aggregated relative pattern d[f]/e: (8+0)/(18+2) = 0.4.
	bsel, ok := tab.LookupPattern(pathhash.Pattern("d", []string{"f"}, "e"))
	if !ok || !approx(bsel, 0.4, 1e-12) {
		t.Fatalf("corr bsel d[f]/e = %v %v, want 0.4", bsel, ok)
	}

	bare := estimate.Options{}
	with := estimate.Options{HET: tab}

	// Simple paths become exact.
	b.pt.Walk(func(n *pathtree.Node) {
		q := n.Query(b.pt.Dict())
		if got := estimateQ(b.k, with, q); !approx(got, float64(n.Card), 1e-9) {
			t.Errorf("|%s| with HET = %g, want %d", q, got, n.Card)
		}
	})

	// Example 4's error disappears: bare 7.14 -> exact 18.
	if got := estimateString(b.k, with, "/a/b/d/e"); !approx(got, 18, 1e-9) {
		t.Errorf("|/a/b/d/e| with HET = %g, want 18", got)
	}

	// Example 5's error shrinks: actual 8, bare 2.04, with HET 18×0.4=7.2.
	actual, _ := b.ev.CountString("/a/b/d[f]/e")
	bareEst := estimateString(b.k, bare, "/a/b/d[f]/e")
	withEst := estimateString(b.k, with, "/a/b/d[f]/e")
	if math.Abs(withEst-float64(actual)) >= math.Abs(bareEst-float64(actual)) {
		t.Errorf("HET did not improve: bare %g, with %g, actual %d", bareEst, withEst, actual)
	}
	if !approx(withEst, 7.2, 1e-9) {
		t.Errorf("|/a/b/d[f]/e| with HET = %g, want 7.2", withEst)
	}
}

func TestPrecomputeMBP2(t *testing.T) {
	// A parent with three children, two of which can serve as predicates:
	// MBP=2 must enumerate two-predicate patterns.
	xml := `<r>
	  <x><e/><f/><g/></x><x><e/><f/><g/></x><x><f/><g/></x>
	  <x><g/></x><x><g/></x><x><g/></x><x><g/></x><x><g/></x><x><g/></x><x><g/></x>
	</r>`
	b := build(t, xml)
	tab, stats := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{MBP: 2, BselThreshold: 0.5})
	if stats.PatternEntries == 0 {
		t.Fatal("no pattern entries")
	}
	// x[e][f]/g: actual parents with both e and f: 2; base |/r/x/g| = 10 →
	// corr 0.2.
	bsel, ok := tab.LookupPattern(pathhash.Pattern("x", []string{"e", "f"}, "g"))
	if !ok {
		t.Fatal("2BP pattern x[e][f]/g missing")
	}
	if !approx(bsel, 0.2, 1e-12) {
		t.Errorf("corr bsel = %g, want 0.2", bsel)
	}
	// The estimator uses it for the 2-predicate query.
	opt := estimate.Options{HET: tab}
	got := estimateString(b.k, opt, "/r/x[e][f]/g")
	if !approx(got, 2, 1e-9) {
		t.Errorf("|/r/x[e][f]/g| = %g, want 2 (exact via 2BP HET)", got)
	}
	// MBP=1 on the same data must not contain the pair pattern.
	tab1, _ := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{MBP: 1, BselThreshold: 0.5})
	if _, ok := tab1.LookupPattern(pathhash.Pattern("x", []string{"e", "f"}, "g")); ok {
		t.Error("MBP=1 table contains a 2-predicate pattern")
	}
}

// TestFalsePositivePathsZeroed: the kernel derives /r/a/b/d although no d
// exists under a/b (Observation 1's false positives); pre-computation must
// record a zero-cardinality entry that the estimator then honors.
func TestFalsePositivePathsZeroed(t *testing.T) {
	b := build(t, "<r><a><b/></a><c><b><d/></b></c></r>")
	bare := estimate.Options{}
	if got := estimateString(b.k, bare, "/r/a/b/d"); got <= 0 {
		t.Fatalf("fixture drift: bare estimate of the false positive = %g, want > 0", got)
	}
	tab, _ := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{MBP: 0})
	card, _, _, ok := tab.LookupPath(pathhash.Path("r", "a", "b", "d"))
	if !ok || card != 0 {
		t.Fatalf("false-positive entry: card=%v ok=%v, want 0/true", card, ok)
	}
	with := estimate.Options{HET: tab}
	if got := estimateString(b.k, with, "/r/a/b/d"); got != 0 {
		t.Errorf("with HET |/r/a/b/d| = %g, want 0", got)
	}
	// Real paths stay exact.
	if got := estimateString(b.k, with, "/r/c/b/d"); !approx(got, 1, 1e-9) {
		t.Errorf("|/r/c/b/d| = %g, want 1", got)
	}
	// Complex queries over the union also improve: //a/b/d is 0.
	if got := estimateString(b.k, with, "//a/b/d"); got != 0 {
		t.Errorf("|//a/b/d| with HET = %g, want 0", got)
	}
}

// TestThresholdPrunedPathsStillRecorded: path tree nodes pruned from the
// EPT by CARD_THRESHOLD still get entries (error = actual cardinality).
func TestThresholdPrunedPathsStillRecorded(t *testing.T) {
	b := build(t, fixtures.PaperFigure2)
	tab, _ := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{
		MBP:             0,
		EstimateOptions: estimate.Options{CardThreshold: 100}, // prune everything
	})
	card, _, _, ok := tab.LookupPath(pathhash.Path("a", "c", "s", "p"))
	if !ok || card != 9 {
		t.Errorf("pruned path entry card=%v ok=%v, want 9/true", card, ok)
	}
}

func TestMaxCandidatesPerNodeCap(t *testing.T) {
	b := build(t, fixtures.PaperFigure2)
	_, unbounded := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{MBP: 1, BselThreshold: 0.99})
	_, capped := Precompute(b.doc, b.pt, b.k, PrecomputeOptions{MBP: 1, BselThreshold: 0.99, MaxCandidatesPerNode: 1})
	if capped.Candidates >= unbounded.Candidates {
		t.Errorf("cap had no effect: %d vs %d", capped.Candidates, unbounded.Candidates)
	}
}

// TestCandidateCountsMatchNoK: every branching candidate u[preds]/r that
// Precompute enumerates is counted from u's extent, and that count must be
// what the NoK operator returns for the candidate's query. Figure 2 and
// XMark have candidates only above the default bsel threshold of 0.1.
func TestCandidateCountsMatchNoK(t *testing.T) {
	for _, c := range []struct {
		name string
		thr  float64
	}{{"fig2", 0.5}, {"xmark", 0.5}, {"dblp", 0}, {"treebank", 0}} {
		var b built
		if c.name == "fig2" {
			b = build(t, fixtures.PaperFigure2)
		} else {
			src, err := datagen.New(c.name, 0.01, 1)
			if err != nil {
				t.Fatal(err)
			}
			b = buildSource(t, src)
		}
		dict := b.pt.Dict()
		nokCount := map[string]int64{} // the options' candidates overlap
		for _, opt := range []PrecomputeOptions{
			{MBP: 1}, {MBP: 1, MaxCandidatesPerNode: 5},
			{MBP: 2}, {MBP: 2, MaxCandidatesPerNode: 40}, {MBP: 3, MaxCandidatesPerNode: 40},
		} {
			opt.BselThreshold = c.thr
			opt.EstimateOptions.CardThreshold = 20
			n, mismatches := 0, 0
			walkCandidates(b.doc, b.pt, opt, func(u *pathtree.Node, preds []*pathtree.Node, r *pathtree.Node, actual int64) {
				n++
				labels := make([]string, len(preds))
				for i, p := range preds {
					labels[i] = dict.Name(p.Label)
				}
				q := candidateQuery(u.Query(dict).Steps, labels, dict.Name(r.Label))
				key := q.String()
				want, ok := nokCount[key]
				if !ok {
					want = b.ev.Count(q)
					nokCount[key] = want
				}
				if actual != want {
					if mismatches++; mismatches <= 5 {
						t.Errorf("%s MBP %d cap %d: %s counted %d from the extent, NoK %d",
							c.name, opt.MBP, opt.MaxCandidatesPerNode, key, actual, want)
					}
				}
			})
			_, stats := Precompute(b.doc, b.pt, b.k, opt)
			if n == 0 || stats.Candidates != n {
				t.Errorf("%s MBP %d cap %d: Precompute counted %d candidates, the walk enumerated %d",
					c.name, opt.MBP, opt.MaxCandidatesPerNode, stats.Candidates, n)
			}
			t.Logf("%s MBP %d cap %d: %d candidates, %d mismatches", c.name, opt.MBP, opt.MaxCandidatesPerNode, n, mismatches)
		}
	}
}

func TestFeedbackSimplePath(t *testing.T) {
	b := build(t, fixtures.PaperFigure4)
	tab := New(0)
	opt := estimate.Options{HET: tab}

	q := xpath.MustParse("/a/b/d/e")
	bare := estimateQ(b.k, opt, q)
	actual := float64(b.ev.Count(q))
	tab.Feedback(q, actual, bare, 0)

	if got := estimateQ(b.k, opt, q); !approx(got, actual, 1e-9) {
		t.Errorf("after feedback |/a/b/d/e| = %g, want %g", got, actual)
	}
	// The entry has card only; bsel stays from the kernel (BselOK false).
	_, _, bselOK, ok := tab.LookupPath(pathhash.Path("a", "b", "d", "e"))
	if !ok || bselOK {
		t.Errorf("feedback entry: ok=%v bselOK=%v, want true/false", ok, bselOK)
	}
}

func TestFeedbackBranching(t *testing.T) {
	b := build(t, fixtures.PaperFigure4)
	tab := New(0)
	opt := estimate.Options{HET: tab}

	q := xpath.MustParse("/a/b/d[f]/e")
	actual := float64(b.ev.Count(q))
	estimateBefore := estimateQ(b.k, opt, q)
	base := estimateQ(b.k, opt, StripPreds(q)) // |/a/b/d/e| estimate
	tab.Feedback(q, actual, estimateBefore, base)

	bsel, ok := tab.LookupPattern(pathhash.Pattern("d", []string{"f"}, "e"))
	if !ok {
		t.Fatal("branching feedback did not create a pattern entry")
	}
	if bsel <= 0 || bsel > 1 {
		t.Errorf("corr bsel = %g out of range", bsel)
	}
	after := estimateQ(b.k, opt, q)
	if math.Abs(after-actual) > math.Abs(estimateBefore-actual) {
		t.Errorf("feedback worsened estimate: before %g after %g actual %g",
			estimateBefore, after, actual)
	}
}

func TestFeedbackIgnoresComplexShapes(t *testing.T) {
	tab := New(0)
	for _, qs := range []string{
		"/a/b[c]/d[e]/f", // two predicated steps
		"/a/b[c/x]/d",    // multi-step predicate
		"/a/b[.//c]/d",   // descendant predicate
		"/a/b[*]/d",      // wildcard predicate
		"/a/*[c]/d",      // wildcard parent
		"/a/b[c]",        // predicate on the result step
	} {
		q := xpath.MustParse(qs)
		tab.Feedback(q, 10, 5, 20)
	}
	if tab.NumEntries() != 0 {
		t.Errorf("complex shapes created %d entries", tab.NumEntries())
	}
}

func TestStripPreds(t *testing.T) {
	q := xpath.MustParse("/a/b[c][d]/e[f/g]")
	s := StripPreds(q)
	if s.String() != "/a/b/e" {
		t.Errorf("StripPreds = %q, want /a/b/e", s.String())
	}
	if q.String() != "/a/b[c][d]/e[f/g]" {
		t.Errorf("original mutated: %q", q.String())
	}
}

// TestFeedbackPreservesPrecomputedBsel pins the merge-on-upsert fix: a
// card-only query feedback (the simple-path branch builds an entry with
// BselOK=false) must not wipe a path's precomputed backward selectivity —
// only the cardinality and error refresh.
func TestFeedbackPreservesPrecomputedBsel(t *testing.T) {
	tab := New(0)
	h := pathhash.Path("a", "b")
	tab.Add(Entry{Hash: h, Card: 10, Bsel: 0.5, BselOK: true, Err: 3})

	q := xpath.MustParse("/a/b")
	delta, applied := tab.Feedback(q, 12, 10, 0)
	if !applied || delta.BselOK {
		t.Fatalf("feedback delta = %+v applied=%v, want card-only applied", delta, applied)
	}
	card, bsel, bselOK, ok := tab.LookupPath(h)
	if !ok {
		t.Fatal("entry lost after feedback")
	}
	if card != 12 {
		t.Errorf("card = %g, want fed-back 12", card)
	}
	if !bselOK || bsel != 0.5 {
		t.Errorf("bsel = %g ok=%v after card-only feedback, want precomputed 0.5 preserved", bsel, bselOK)
	}
	// Replaying the recorded delta onto a copy of the pre-feedback table
	// converges to the same merged state (what the store's log replay does).
	replay := New(0)
	replay.Add(Entry{Hash: h, Card: 10, Bsel: 0.5, BselOK: true, Err: 3})
	replay.Add(delta)
	rc, rb, rok, _ := replay.LookupPath(h)
	if rc != card || rb != bsel || rok != bselOK {
		t.Errorf("replayed entry = (%g, %g, %v), live = (%g, %g, %v)", rc, rb, rok, card, bsel, bselOK)
	}
	// An entry that does carry a selectivity still replaces wholesale.
	tab.Add(Entry{Hash: h, Card: 20, Bsel: 0.9, BselOK: true, Err: 1})
	if _, bsel, _, _ := tab.LookupPath(h); bsel != 0.9 {
		t.Errorf("bsel = %g after full upsert, want 0.9", bsel)
	}
}

// TestTableIncrementalRankOrder cross-checks the incremental rank
// maintenance against a from-scratch rebuild over a randomized workload of
// inserts, upserts, and budget changes.
func TestTableIncrementalRankOrder(t *testing.T) {
	tab := New(8 * EntrySize)
	ref := make(map[tkey]Entry)
	rnd := uint32(1)
	next := func() uint32 { rnd = rnd*1664525 + 1013904223; return rnd }
	for i := 0; i < 2000; i++ {
		e := Entry{
			Hash:    next()%64 + 1,
			Pattern: next()%2 == 0,
			Card:    float64(next() % 100),
			Err:     float64(next() % 50),
		}
		tab.Add(e)
		k := tkey{e.Hash, e.Pattern}
		if old, ok := ref[k]; ok && !e.BselOK && old.BselOK {
			e.Bsel, e.BselOK = old.Bsel, old.BselOK
		}
		ref[k] = e
		if i%97 == 0 {
			tab.SetBudget(int(next()%16+1) * EntrySize)
		}
	}
	all := tab.Entries()
	if len(all) != len(ref) {
		t.Fatalf("table has %d entries, reference %d", len(all), len(ref))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Err < all[i].Err {
			t.Fatalf("rank order violated at %d: %g < %g", i, all[i-1].Err, all[i].Err)
		}
	}
	for i, e := range all {
		want, ok := ref[tkey{e.Hash, e.Pattern}]
		if !ok || want.Card != e.Card || want.Err != e.Err {
			t.Errorf("entry %d (%x,%v) = %+v, want %+v", i, e.Hash, e.Pattern, e, want)
		}
	}
	// The resident set is exactly the in-budget prefix.
	wantRes := tab.Budget() / EntrySize
	if wantRes > len(all) {
		wantRes = len(all)
	}
	if tab.NumResident() != wantRes {
		t.Errorf("resident = %d, want %d", tab.NumResident(), wantRes)
	}
	for i, e := range all {
		var ok bool
		if e.Pattern {
			if !e.BselOK {
				continue // unservable regardless of residency
			}
			_, ok = tab.LookupPattern(e.Hash)
		} else {
			_, _, _, ok = tab.LookupPath(e.Hash)
		}
		if got, want := ok, i < wantRes; got != want {
			t.Errorf("entry %d resident=%v, want %v", i, got, want)
		}
	}
}
