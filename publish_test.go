package xseed

import (
	"math"
	"runtime"
	"testing"

	"xseed/internal/fixtures"
	"xseed/internal/het"
)

// treebankSynopsis builds the served read-write shape — treebank ×0.01,
// card threshold 20, 1BP — and returns it with the document's simple paths
// of more than 20 results, whose estimate is exactly their hyper-edge card.
func treebankSynopsis(tb testing.TB) (*Synopsis, []*Query) {
	tb.Helper()
	d, err := Generate("treebank", 0.01, 1)
	if err != nil {
		tb.Fatal(err)
	}
	syn, err := BuildSynopsis(d, &Config{CardThreshold: 20})
	if err != nil {
		tb.Fatal(err)
	}
	var qs []*Query
	for _, q := range d.SimplePathQueries(0) {
		if act, _ := q.Actual(); act > 20 {
			qs = append(qs, q)
		}
	}
	if len(qs) < 16 {
		tb.Fatalf("treebank has %d simple paths of more than 20 results", len(qs))
	}
	return syn, qs
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPublishAllocatesByChange is the publish layer's allocation budget:
// one changed simple-path feedback and the publication after it allocate
// in proportion to the change (the least of 5 runs stays under 16 KiB on a
// table of about 7k resident entries, which a full view rebuild exceeds
// twentyfold), and a confirming feedback publishes nothing: the same
// snapshot, with its version and built EPT.
func TestPublishAllocatesByChange(t *testing.T) {
	syn, qs := treebankSynopsis(t)
	q := qs[len(qs)/2]
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		syn.EPTStats() // the feedback's before-estimate runs on a built EPT
		sn := syn.Snapshot()
		est := sn.EstimateQuery(q)
		n := allocated(func() {
			syn.FeedbackQueryDeltaDeferred(q, est+1)
			syn.Publish()
		})
		if syn.Snapshot().Version() != sn.Version()+1 {
			t.Fatalf("changed feedback: version %d -> %d, want one publication", sn.Version(), syn.Snapshot().Version())
		}
		if got := syn.EstimateQuery(q); got != est+1 {
			t.Fatalf("%s after feedback of %g = %g", q, est+1, got)
		}
		if n < least {
			least = n
		}
	}
	t.Logf("one changed feedback + Publish: %d B (least of 5)", least)
	if least >= 16<<10 {
		t.Fatalf("one changed feedback + Publish allocated %d B, budget 16 KiB", least)
	}

	sn := syn.Snapshot()
	est := sn.EstimateQuery(q)
	if _, _, applied := syn.FeedbackQueryDeltaDeferred(q, est); !applied {
		t.Fatal("confirming feedback was not applied")
	}
	syn.Publish()
	if got := syn.Snapshot(); got != sn || got.Version() != sn.Version() {
		t.Fatalf("confirming feedback replaced snapshot version %d with %d", sn.Version(), got.Version())
	}
}

// TestReplayKernelChangePublishes: Replay updates the kernel in place,
// behind the pointer the current snapshot holds, so a replayed subtree
// update that interns no label and touches no hyper-edge leaves kernel
// pointer, dictionary length and view all unchanged — yet the snapshot
// after Replay must be a new one, whose estimates see the update.
func TestReplayKernelChangePublishes(t *testing.T) {
	for name, cfg := range map[string]*Config{
		"kernel-only":   {HET: &HETConfig{Disable: true}},
		"feedback-only": {HET: &HETConfig{FeedbackOnly: true}},
	} {
		d, err := ParseXMLString("<a><b><c/></b><b/></a>")
		if err != nil {
			t.Fatal(err)
		}
		syn, err := BuildSynopsis(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Estimating builds the current snapshot's EPT from the old kernel.
		if got, err := syn.Estimate("/a/b/c"); err != nil || got != 1 {
			t.Fatalf("%s: /a/b/c before replay = %v (%v), want 1", name, got, err)
		}
		before := syn.Snapshot()
		err = syn.Replay(func() error { return syn.AddSubtree([]string{"a"}, "<b><c/></b>") })
		if err != nil {
			t.Fatal(err)
		}
		if v := syn.Snapshot().Version(); v != before.Version()+1 {
			t.Fatalf("%s: version after replay = %d, want %d", name, v, before.Version()+1)
		}
		if got, err := syn.Estimate("/a/b/c"); err != nil || got != 2 {
			t.Fatalf("%s: /a/b/c after replayed subtree = %v (%v), want 2", name, got, err)
		}
	}
}

// TestSetBudgetPublishesOnlyWhenLimitMoves: a budget change that keeps the
// resident entry count keeps the snapshot; one that moves it publishes,
// and its estimates are those of a synopsis built under that budget.
func TestSetBudgetPublishesOnlyWhenLimitMoves(t *testing.T) {
	d, err := ParseXMLString(fixtures.PaperFigure4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{HET: &HETConfig{MBP: 1, BselThreshold: 0.5}}
	syn, err := BuildSynopsis(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"/a/b/d/e", "/a/b/d[f]/e", "//d//e", "/a/c/d"}
	estimates := func(s *Synopsis) []float64 {
		out := make([]float64, len(queries))
		for i, q := range queries {
			if out[i], err = s.Estimate(q); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	unlimited := estimates(syn)
	_, entries := syn.HETEntries()
	kern := syn.KernelSizeBytes()
	const keep = 1
	capped, err := BuildSynopsis(d, &Config{HET: &HETConfig{MBP: 1, BselThreshold: 0.5, BudgetBytes: keep * het.EntrySize}})
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(capped)

	steps := []struct {
		name    string
		budget  int
		publish bool
		want    []float64
	}{
		{"unlimited again", -1, false, unlimited},
		{"room for every entry", kern + (entries+5)*het.EntrySize, false, unlimited},
		{"room for one", kern + keep*het.EntrySize, true, want},
		{"room for one and a bit", kern + keep*het.EntrySize + 7, false, want},
		{"unlimited", -1, true, unlimited},
	}
	for _, st := range steps {
		before := syn.Snapshot()
		syn.SetBudget(st.budget)
		after := syn.Snapshot()
		if published := after != before; published != st.publish {
			t.Fatalf("%s: published = %v, want %v", st.name, published, st.publish)
		}
		if st.publish && after.Version() != before.Version()+1 {
			t.Fatalf("%s: version %d -> %d, want one publication", st.name, before.Version(), after.Version())
		}
		got := estimates(syn)
		for i := range queries {
			if got[i] != st.want[i] {
				t.Fatalf("%s: %s = %g, want %g", st.name, queries[i], got[i], st.want[i])
			}
		}
	}
	same := true
	for i := range queries {
		same = same && unlimited[i] == want[i]
	}
	if same {
		t.Fatal("the one-entry budget changes no estimate; the test proves nothing")
	}
}
