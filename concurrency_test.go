package xseed

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"xseed/internal/estimate"
	"xseed/internal/fixtures"
	"xseed/internal/het"
)

// TestConcurrentEstimates exercises the Synopsis concurrency contract: any
// number of estimate calls may run in parallel with each other (run under
// -race). Mixed readers and mutators are covered by
// TestSnapshotConsistencyHammer below and the server-level tests in
// internal/server.
func TestConcurrentEstimates(t *testing.T) {
	d, err := ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"/a/c/s", "/a/c/s/s/t", "//s//p", "/a/c/s[p]/t", "//s[t]", "/a/*/s"}
	want := make([]float64, len(queries))
	for i, q := range queries {
		if want[i], err = syn.Estimate(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				idx := (g + i) % len(queries)
				got, err := syn.Estimate(queries[idx])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[idx] {
					t.Errorf("%s: concurrent estimate %v, want %v", queries[idx], got, want[idx])
					return
				}
				if sg, _ := syn.EstimateStreamingQuery(MustParseQuery(queries[idx])); sg < 0 {
					t.Errorf("streaming estimate negative: %v", sg)
					return
				}
				syn.EPTStats()
				syn.SizeBytes()
			}
		}(g)
	}
	wg.Wait()
}

// TestSnapshotConsistencyHammer proves the lock-free snapshot semantics
// under -race: while one (externally serialized) mutator interleaves
// feedback, subtree add/remove, and budget changes, concurrent readers
// estimate lock-free — and every estimate must equal, bit for bit, the
// value of *some published snapshot* for that query. The mutator captures
// each snapshot it publishes; after the run, every (version, query,
// estimate) observation is replayed against the captured snapshot of that
// version. A torn read (an estimate interpolating two versions) or a
// mutation leaking into a pinned snapshot would break bit-equality.
func TestSnapshotConsistencyHammer(t *testing.T) {
	d, err := ParseXMLString("<a><b><c/><c/><d/></b><b><c/></b><e><c/><d/></e></a>")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*Query{
		MustParseQuery("/a/b"),
		MustParseQuery("/a/b/c"),
		MustParseQuery("//c"),
		MustParseQuery("/a/b[c]/d"),
		MustParseQuery("/a/*[d]"),
	}

	// Every published snapshot, captured by the serialized mutator (plus
	// the initial one). Guarded by snapMu; the version is the map key so a
	// mutation that publishes nothing (unapplied feedback) is harmless.
	snapMu := sync.Mutex{}
	snaps := map[uint64]*Snapshot{}
	capture := func() {
		sn := syn.Snapshot()
		snapMu.Lock()
		snaps[sn.Version()] = sn
		snapMu.Unlock()
	}
	capture()

	type obs struct {
		ver uint64
		qi  int
		val float64
	}
	const readers = 4
	observed := make([][]obs, readers)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	mutatorDead := make(chan struct{})
	wg.Add(1)
	go func() { // the single mutator (mutations must be serialized)
		defer wg.Done()
		defer close(mutatorDead)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 5 {
			case 0:
				if err := syn.Feedback("/a/b/c", float64(1+i%7)); err != nil {
					t.Error(err)
					return
				}
			case 1:
				if err := syn.Feedback("/a/b[c]/d", float64(1+i%3)); err != nil {
					t.Error(err)
					return
				}
			case 2:
				if err := syn.AddSubtree([]string{"a"}, "<b><c/><c/></b>"); err != nil {
					t.Error(err)
					return
				}
			case 3:
				if err := syn.RemoveSubtree([]string{"a"}, "<b><c/><c/></b>"); err != nil {
					t.Error(err)
					return
				}
			case 4:
				if i%2 == 0 {
					syn.SetBudget(syn.KernelSizeBytes() + 48)
				} else {
					syn.SetBudget(-1)
				}
			}
			capture()
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sn := syn.Snapshot()
				qi := (g + i) % len(queries)
				var val float64
				if i%3 == 0 {
					val, _ = sn.EstimateStreamingQuery(queries[qi])
					// Streaming values are checked for determinism against
					// the captured snapshot the same way (replay below).
					observed[g] = append(observed[g], obs{^sn.Version(), qi, val})
					continue
				}
				if i%3 == 1 {
					val = sn.Compile(queries[qi]).Run(sn)
				} else {
					val = sn.EstimateQuery(queries[qi])
				}
				observed[g] = append(observed[g], obs{sn.Version(), qi, val})
			}
		}(g)
	}
	// Run the hammer for a fixed volume of mutations rather than wall time.
	// A mutator that died on error stops publishing — bail out instead of
	// spinning until the go-test timeout buries its t.Error.
	for alive := true; alive; {
		snapMu.Lock()
		n := len(snaps)
		snapMu.Unlock()
		if n > 300 {
			break
		}
		select {
		case <-mutatorDead:
			alive = false
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()

	// Replay: every observation must equal the captured snapshot's answer.
	total := 0
	for g := range observed {
		for _, o := range observed[g] {
			streaming := false
			ver := o.ver
			if ver > 1<<62 { // streaming observations carry ^version
				streaming = true
				ver = ^ver
			}
			sn := snaps[ver]
			if sn == nil {
				t.Fatalf("reader %d observed unpublished snapshot version %d", g, ver)
			}
			var want float64
			if streaming {
				want, _ = sn.EstimateStreamingQuery(queries[o.qi])
			} else {
				want = sn.EstimateQuery(queries[o.qi])
			}
			if o.val != want {
				t.Fatalf("reader %d: %s at version %d = %v, want %v (torn read)",
					g, queries[o.qi], ver, o.val, want)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no estimates observed")
	}
	t.Logf("verified %d estimates across %d snapshots", total, len(snaps))
}

// flatReference returns the estimation snapshot sn would be with its
// hyper-edge view built flat from the synopsis's current table: the table
// round-trips through its serialized form, whose load builds its first
// view in one pass. Call it from the goroutine that serializes mutations.
func flatReference(t *testing.T, syn *Synopsis, sn *Snapshot) *estimate.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := syn.tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	flat, err := het.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt := sn.es.Options()
	opt.HET = flat.View()
	return estimate.NewSnapshot(sn.es.Kernel(), sn.es.Dict(), opt)
}

// TestDerivedViewHammer: readers estimate against pinned snapshots while
// one mutator runs feedback rounds whose hyper-edge views derive from the
// previous ones — through a budget cap that moves entries across the
// resident boundary, and past at least one flatten (each round adds four
// new keys, so the overlay outgrows its base's share plus the floor of 64
// within about 25 rounds). Every estimate must equal, bit for bit, what a
// flat-view snapshot of the same table state answers, and a round that
// changed no answer must keep the snapshot.
func TestDerivedViewHammer(t *testing.T) {
	d, err := Generate("xmark", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := d.SimplePathQueries(0)
	bp, err := d.RandomWorkload("BP", 16, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := append(append([]*Query{}, sp...), bp...)
	queries = append(queries, MustParseQuery("//item//name"), MustParseQuery("/site/*/person"))

	const rounds = 60
	refs := map[uint64]*estimate.Snapshot{1: flatReference(t, syn, syn.Snapshot())}
	type obs struct {
		ver uint64
		qi  int
		val float64
	}
	const readers = 3
	observed := make([][]obs, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sn := syn.Snapshot()
				qi := (g + i) % len(queries)
				var val float64
				if i%2 == 0 {
					val = sn.EstimateQuery(queries[qi])
				} else {
					val = sn.Compile(queries[qi]).Run(sn)
				}
				observed[g] = append(observed[g], obs{sn.Version(), qi, val})
			}
		}(g)
	}

	kept := 0
	for r := 0; r < rounds; r++ {
		if r == rounds/4 {
			_, total := syn.HETEntries()
			syn.SetBudget(syn.KernelSizeBytes() + total*3/4*het.EntrySize)
			refs[syn.Snapshot().Version()] = flatReference(t, syn, syn.Snapshot())
		}
		before := syn.Snapshot()
		confirm := r%5 == 4
		for j := 0; j < 8; j++ {
			var q *Query
			var actual float64
			switch {
			case confirm:
				q = sp[(r+j)%len(sp)]
				actual = before.EstimateQuery(q)
			case j < 4:
				q = MustParseQuery(fmt.Sprintf("/site/fresh%d_%d", r, j))
				actual = float64(r + j + 1)
			case j < 7:
				q = sp[(r*3+j)%len(sp)]
				actual = float64(r*j%17 + 1)
			default:
				q = bp[r%len(bp)]
				actual = float64(r%5 + 1)
			}
			syn.FeedbackQueryDeltaDeferred(q, actual)
		}
		syn.Publish()
		sn := syn.Snapshot()
		if sn == before {
			kept++
			continue
		}
		refs[sn.Version()] = flatReference(t, syn, sn)
	}
	close(stop)
	wg.Wait()
	if kept == 0 {
		t.Fatal("no confirming round kept its snapshot")
	}

	total := 0
	for g := range observed {
		for _, o := range observed[g] {
			ref := refs[o.ver]
			if ref == nil {
				t.Fatalf("reader %d observed unpublished snapshot version %d", g, o.ver)
			}
			if want := ref.Estimate(queries[o.qi].p); math.Float64bits(o.val) != math.Float64bits(want) {
				t.Fatalf("reader %d: %s at version %d = %v, flat view %v", g, queries[o.qi], o.ver, o.val, want)
			}
			total++
		}
	}
	t.Logf("verified %d estimates across %d snapshots (%d rounds kept theirs)", total, len(refs), kept)
}
