package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/obs"
	"xseed/internal/wire"
)

func buildFixtureSynopsis(t testing.TB, cfg *xseed.Config) (*xseed.Document, *xseed.Synopsis) {
	t.Helper()
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return doc, syn
}

func TestRegistryAddGetDelete(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("fig2", syn, "test"); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if _, err := r.Get("fig2"); err != nil {
		t.Fatal(err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Name != "fig2" || infos[0].KernelBytes <= 0 {
		t.Fatalf("List = %+v", infos)
	}
	if err := r.Delete("fig2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("fig2"); err == nil {
		t.Fatal("second Delete succeeded")
	}
	if _, err := r.Get("fig2"); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
}

func TestRegistryEstimateCaching(t *testing.T) {
	doc, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	const q = "/a/c/s"
	first, err := r.Estimate(context.Background(), "fig2", q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first estimate was served from an empty cache")
	}
	actual, _ := doc.Count(q)
	if first.Estimate <= 0 {
		t.Fatalf("estimate %v for %s (actual %d)", first.Estimate, q, actual)
	}
	second, err := r.Estimate(context.Background(), "fig2", q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Estimate != first.Estimate {
		t.Fatalf("second = %+v, want cached repeat of %v", second, first.Estimate)
	}
	// The cache is keyed by raw text, so that a hit skips the parse: a
	// spelling variant takes its own entry, misses once, and answers the
	// same estimate under the same normalized query.
	spelled, err := r.EstimateBatch(context.Background(), "fig2", []string{"/a/c[//p]", "/a/c[.//p]"}, false)
	if err != nil {
		t.Fatal(err)
	}
	a, b := spelled[0], spelled[1]
	if a.Cached || b.Cached {
		t.Fatalf("first sight of each spelling was served from the cache: %+v %+v", a, b)
	}
	if a.Query != b.Query || a.Estimate != b.Estimate || a.Query != "/a/c[.//p]" || a.Estimate <= 0 {
		t.Fatalf("spelling variants disagree: %+v vs %+v", a, b)
	}
	variant, err := r.Estimate(context.Background(), "fig2", "/a/c[//p]")
	if err != nil {
		t.Fatal(err)
	}
	if !variant.Cached || variant.Query != a.Query || variant.Estimate != a.Estimate {
		t.Fatalf("repeated spelling = %+v, want a cached repeat of %+v", variant, a)
	}
	// The retired streaming flag is ignored: a flagged batch is answered
	// from the unflagged request's cache entry.
	flagged, err := r.EstimateBatch(context.Background(), "fig2", []string{q}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !flagged[0].Cached || flagged[0].Estimate != first.Estimate {
		t.Fatalf("flagged = %+v, want a cached repeat of %v", flagged[0], first.Estimate)
	}
}

// TestRegistryFeedbackRerunsCachedPlan: feedback publishes a new snapshot,
// so the next estimate of a cached query is recomputed — not Cached — from
// the plan the cache kept, which counts a plan hit and no parse.
func TestRegistryFeedbackRerunsCachedPlan(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	const q = "/a/c/s"
	if _, err := r.Estimate(context.Background(), "fig2", q); err != nil {
		t.Fatal(err)
	}
	if err := r.Feedback("fig2", q, 9); err != nil {
		t.Fatal(err)
	}
	const want = 9
	before := r.cache.Stats()
	got, err := r.Estimate(context.Background(), "fig2", q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached || got.Estimate != want {
		t.Fatalf("estimate after feedback = %+v, want an uncached %v", got, want)
	}
	after := r.cache.Stats()
	if after.PlanHits != before.PlanHits+1 || after.PlanMisses != before.PlanMisses || after.Hits != before.Hits {
		t.Fatalf("cache counters %+v -> %+v, want one plan hit and no estimate hit", before, after)
	}
	if again, _ := r.Estimate(context.Background(), "fig2", q); !again.Cached || again.Estimate != want {
		t.Fatalf("repeat after the rerun = %+v, want a cached %v", again, want)
	}
	if after.Entries != 1 {
		t.Fatalf("one query holds %d cache entries", after.Entries)
	}
}

// TestRegistryBatchRepeatsProbeOnce: repeats of a query within one batch
// share one cache probe and one computation; once the query is cached, each
// repeat counts as the hit its own probe would have been, in all three
// counters (estimate hit, plan hit, cost saved).
func TestRegistryBatchRepeatsProbeOnce(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	batch := []string{"/a/c/s", "/a/c/s", "/a/c[t]/s", "/a/c/s"}
	cold, err := r.EstimateBatch(context.Background(), "fig2", batch, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.cache.Stats(); st.Misses != 2 || st.PlanMisses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("cold batch cache stats = %+v, want 2 misses, 2 plan misses, 2 entries", st)
	}
	for _, i := range []int{1, 3} {
		if cold[i] != cold[0] {
			t.Fatalf("repeat %d = %+v, want %+v", i, cold[i], cold[0])
		}
	}
	warm, err := r.EstimateBatch(context.Background(), "fig2", batch, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range warm {
		if !it.Cached || it.Estimate != cold[i].Estimate || it.Query != cold[i].Query {
			t.Fatalf("warm item %d = %+v, want a cached %+v", i, it, cold[i])
		}
	}
	e, err := r.Get("fig2")
	if err != nil {
		t.Fatal(err)
	}
	costOf := func(q string) int64 {
		k := cacheKey{id: e.id, query: q}
		return r.cache.shards[r.cache.shardFor(k)].items[k].Value.(*cacheEntry).val.CostNs
	}
	want := 3*costOf("/a/c/s") + costOf("/a/c[t]/s")
	if st := r.cache.Stats(); st.Hits != 4 || st.PlanHits != 4 || st.CostSavedNs != want {
		t.Fatalf("warm batch cache stats = %+v, want 4 hits, 4 plan hits, costSavedNs %d", st, want)
	}
}

// TestEstimateProbeFinishCountsOnce: a batch probed and then finished
// apart, as the xtp reader runs it, answers and counts exactly like one
// EstimateBatch, and each query is looked up once: the finish probes only
// the queries the probe did not reach.
func TestEstimateProbeFinishCountsOnce(t *testing.T) {
	ctx := context.Background()
	batch := []string{"/a/c/s", "/a/u", "//s//p", "/a/c/s"} // hit, miss, hit, repeat of a hit
	// counters are (hits, misses, plan hits, plan misses) in the cache and
	// then (hits, misses) in the tenant's own accounting.
	type counters [6]int64
	want := counters{3, 1, 3, 1, 3, 1}
	run := func(estimate func(r *Registry) ([]api.EstimateItem, error)) ([]api.EstimateItem, counters) {
		_, syn := buildFixtureSynopsis(t, nil)
		r := NewRegistry(0, 0)
		t.Cleanup(r.Close)
		if _, err := r.Add("fig2", syn, "test"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.EstimateBatch(ctx, "fig2", []string{"/a/c/s", "//s//p"}, false); err != nil {
			t.Fatal(err)
		}
		count := func() counters {
			st, ten := r.cache.Stats(), r.Tenants().Default()
			return counters{st.Hits, st.Misses, st.PlanHits, st.PlanMisses, ten.hits.load(), ten.misses.load()}
		}
		before := count()
		items, err := estimate(r)
		if err != nil {
			t.Fatal(err)
		}
		after := count()
		for i := range after {
			after[i] -= before[i]
		}
		return items, after
	}
	whole, wholeCounts := run(func(r *Registry) ([]api.EstimateItem, error) {
		return r.EstimateBatch(ctx, "fig2", batch, false)
	})
	split, splitCounts := run(func(r *Registry) ([]api.EstimateItem, error) {
		var b estBatch
		if err := r.probeBatch(ctx, &b, "fig2", batch); err != nil {
			return nil, err
		}
		if b.answered() || b.next != 1 {
			t.Fatalf("probe stopped at %d (answered %v), want at the miss, 1", b.next, b.answered())
		}
		return r.finishBatch(ctx, &b)
	})
	for i := range whole {
		if split[i] != whole[i] {
			t.Errorf("item %d = %+v, want %+v", i, split[i], whole[i])
		}
	}
	if wholeCounts != want || splitCounts != want {
		t.Fatalf("counters moved by %v in one call and %v probed and finished apart, want %v "+
			"(cache hits, misses, plan hits, plan misses, tenant hits, tenant misses)", wholeCounts, splitCounts, want)
	}
}

// TestEstimateHitAllocs is the hit path's allocation budget: a batch the
// cache answers whole allocates its items, plus the list of its repeats
// when it has any, and nothing for the batch between its probe and its
// finish.
func TestEstimateHitAllocs(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistryObs(0, 0, obs.NewRegistry()) // stage spans on, as in xseedd
	defer r.Close()
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		queries []string
		max     float64
	}{
		{[]string{"/a/c/s"}, 1},
		{[]string{"/a/c/s", "//s//p", "/a/c/s", "/a/u"}, 2},
	} {
		if _, err := r.EstimateBatch(ctx, "fig2", tc.queries, false); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(200, func() {
			items, err := r.EstimateBatch(ctx, "fig2", tc.queries, false)
			if err != nil || !items[len(items)-1].Cached {
				t.Fatalf("warm batch = %+v, %v", items, err)
			}
		})
		if n > tc.max {
			t.Errorf("cached batch of %d allocates %v objects, want at most %v", len(tc.queries), n, tc.max)
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestEstimateMissAllocs is the allocation budget of a served estimate
// batch on the miss path: the skewed-miss benchmark's synopsis, a smaller
// pool of its shape, 64-query Zipf batches against a 4096-entry cache, run
// through what the xtp transport does per request: decode the frame,
// probe, finish, encode the response. Before the one-copy decode, parse
// trees sized once and the pooled dedup table, a request allocated the
// figures below (go1.24, linux/amd64; within 0.5% of them with
// GOEXPERIMENT=noswissmap, the map implementation of go1.22 and 1.23); the
// budget is 55% of those bytes and half of those objects.
func TestEstimateMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a share of sync.Pool puts on purpose, so pooled memory is reallocated")
	}
	if testing.Short() {
		t.Skip("builds a treebank synopsis")
	}
	const (
		beforeBytes   = 23180 // per request
		beforeObjects = 139
	)
	doc, err := xseed.Generate("treebank", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, &xseed.Config{CardThreshold: 20, HET: &xseed.HETConfig{MBP: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var pool []string
	seen := map[string]bool{}
	add := func(qs []*xseed.Query) {
		for _, q := range qs {
			if s := q.String(); !seen[s] {
				seen[s] = true
				pool = append(pool, s)
			}
		}
	}
	add(doc.SimplePathQueries(0))
	for i, class := range []string{"BP", "CP"} {
		qs, err := doc.RandomWorkloadOpts(class, xseed.WorkloadOptions{N: 200, MaxPredsPerStep: 2, Seed: 1 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		add(qs)
	}
	rng := rand.New(rand.NewSource(1))
	rank := rng.Perm(len(pool))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	frames := func(n int) [][]byte {
		out := make([][]byte, n)
		batch := make([]string, 64)
		for i := range out {
			for j := range batch {
				batch[j] = pool[rank[zipf.Uint64()]]
			}
			out[i] = wire.AppendEstimateReq(nil, "treebank", batch, false)
		}
		return out
	}

	reg := NewRegistryObs(4096, 0, obs.NewRegistry()) // stage spans on, as in xseedd
	defer reg.Close()
	if _, err := reg.Add("treebank", syn, "test"); err != nil {
		t.Fatal(err)
	}
	svc := &service{reg: reg}
	ten := reg.Tenants().Default()
	ctx := context.Background()
	buf := make([]byte, 0, 64<<10)
	serve := func(frame []byte) {
		name, queries, _, err := wire.DecodeEstimateReq(frame)
		if err != nil {
			t.Fatal(err)
		}
		var b estBatch
		if aerr := svc.estimate(ctx, &b, ten, name, queries); aerr != nil {
			t.Fatal(aerr)
		}
		items, aerr := svc.finishEstimate(ctx, &b)
		if aerr != nil {
			t.Fatal(aerr)
		}
		buf = wire.AppendEstimateResp(buf[:0], items)
	}
	for _, f := range frames(2000) { // fill the cache and the pools
		serve(f)
	}
	measured := frames(1000)
	before := reg.cache.Stats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, f := range measured {
		serve(f)
	}
	runtime.ReadMemStats(&m1)
	after := reg.cache.Stats()
	n := float64(len(measured))
	allocated := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	objects := float64(m1.Mallocs-m0.Mallocs) / n
	hits := float64(after.Hits-before.Hits) / float64(after.Hits-before.Hits+after.Misses-before.Misses)
	t.Logf("%.0f B and %.1f objects per request (before: %d B, %d objects); hit ratio %.3f over %d distinct queries",
		allocated, objects, beforeBytes, beforeObjects, hits, len(pool))
	if limit := 0.55 * beforeBytes; allocated > limit {
		t.Errorf("a request allocates %.0f B, want at most %.0f (55%% of %d)", allocated, limit, beforeBytes)
	}
	if limit := 0.50 * beforeObjects; objects > limit {
		t.Errorf("a request allocates %.1f objects, want at most %.1f (50%% of %d)", objects, limit, beforeObjects)
	}
}

func TestRegistryPutReplacesCacheGeneration(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Estimate(context.Background(), "fig2", "/a/u"); err != nil {
		t.Fatal(err)
	}
	// Replace the synopsis with one built from a different document; the
	// old warm cache must be unreachable for the new entry.
	doc2, err := xseed.ParseXMLString("<a><u/><u/><u/></a>")
	if err != nil {
		t.Fatal(err)
	}
	syn2, err := xseed.BuildSynopsis(doc2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("fig2", syn2, "replacement"); err != nil {
		t.Fatal(err)
	}
	got, err := r.Estimate(context.Background(), "fig2", "/a/u")
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("estimate after Put served the replaced synopsis's cache entry")
	}
	if got.Estimate != 3 {
		t.Fatalf("estimate after Put = %v, want 3 from the replacement", got.Estimate)
	}
	// Delete + re-Add under the same name must likewise start cold.
	if err := r.Delete("fig2"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	again, err := r.Estimate(context.Background(), "fig2", "/a/u")
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached || again.Estimate != 1 {
		t.Fatalf("estimate after re-Add = %+v, want cold 1", again)
	}
}

func TestRegistryKernelOnlyFeedbackKeepsCacheWarm(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, &xseed.Config{HET: &xseed.HETConfig{Disable: true}})
	r := NewRegistry(0, 0)
	if _, err := r.Add("bare", syn, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Estimate(context.Background(), "bare", "/a/u"); err != nil {
		t.Fatal(err)
	}
	// Feedback on a kernel-only synopsis can't change estimates, so it must
	// not dump the warm cache; the accuracy observation is still recorded.
	if err := r.Feedback("bare", "/a/u", 1); err != nil {
		t.Fatal(err)
	}
	got, err := r.Estimate(context.Background(), "bare", "/a/u")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Fatal("kernel-only feedback invalidated a still-valid cache")
	}
	e, _ := r.Get("bare")
	info := e.Info()
	if info.Feedbacks != 1 || info.Accuracy.N != 1 {
		t.Fatalf("info = %+v, want feedback recorded", info)
	}
}

// TestRegistryFeedbackInvalidatesAndTunes: feedback that changes an
// estimate retires the cached one and tunes the synopsis to the value fed
// back; feeding the same value back again changes nothing an estimate
// reads, so the next estimate is a cache hit.
func TestRegistryFeedbackInvalidatesAndTunes(t *testing.T) {
	doc, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	const q = "/a/c/s/s/t"
	count, err := doc.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-computation already stored the exact count; feed back another
	// one, as after the document changed.
	actual := float64(count + 3)
	if _, err := r.Estimate(context.Background(), "fig2", q); err != nil {
		t.Fatal(err)
	}
	if err := r.Feedback("fig2", q, actual); err != nil {
		t.Fatal(err)
	}
	after, err := r.Estimate(context.Background(), "fig2", q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("estimate after feedback served stale cache entry")
	}
	if after.Estimate != actual {
		t.Fatalf("post-feedback estimate = %v, want exact actual %v", after.Estimate, actual)
	}
	e, _ := r.Get("fig2")
	if n := e.Info().Accuracy.N; n != 1 {
		t.Fatalf("accuracy N = %d, want 1", n)
	}
	if err := r.Feedback("fig2", q, actual); err != nil {
		t.Fatal(err)
	}
	again, err := r.Estimate(context.Background(), "fig2", q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Estimate != actual {
		t.Fatalf("estimate after confirming feedback = %+v, want the cached %v", again, actual)
	}
}

func TestRegistrySubtreeUpdateInvalidates(t *testing.T) {
	// Kernel-only: with an HET, precomputed path cardinalities legitimately
	// shadow the updated kernel (the paper's lazy maintenance), which would
	// hide the cache-invalidation behavior this test is about.
	_, syn := buildFixtureSynopsis(t, &xseed.Config{HET: &xseed.HETConfig{Disable: true}})
	r := NewRegistry(0, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	before, err := r.Estimate(context.Background(), "fig2", "/a/u")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSubtree("fig2", []string{"a"}, "<u/>"); err != nil {
		t.Fatal(err)
	}
	after, err := r.Estimate(context.Background(), "fig2", "/a/u")
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("estimate after subtree update served stale cache entry")
	}
	if after.Estimate != before.Estimate+1 {
		t.Fatalf("estimate after adding one <u/>: %v, want %v", after.Estimate, before.Estimate+1)
	}
	if err := r.RemoveSubtree("fig2", []string{"a"}, "<u/>"); err != nil {
		t.Fatal(err)
	}
	restored, err := r.Estimate(context.Background(), "fig2", "/a/u")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Estimate != before.Estimate {
		t.Fatalf("estimate after remove: %v, want %v", restored.Estimate, before.Estimate)
	}
}

func TestRegistryAggregateBudget(t *testing.T) {
	_, syn1 := buildFixtureSynopsis(t, nil)
	_, syn2 := buildFixtureSynopsis(t, nil)
	if syn1.HETSizeBytes() == 0 {
		t.Fatal("fixture synopsis has no HET; budget test is vacuous")
	}
	r := NewRegistry(0, 0)
	if _, err := r.Add("a", syn1, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("b", syn2, "test"); err != nil {
		t.Fatal(err)
	}
	// Shrink the fleet to exactly its kernels: every HET must be evicted.
	kernels := syn1.KernelSizeBytes() + syn2.KernelSizeBytes()
	r.SetAggregateBudget(kernels)
	if n := syn1.HETSizeBytes() + syn2.HETSizeBytes(); n != 0 {
		t.Fatalf("resident HET bytes after kernel-only budget: %d, want 0", n)
	}
	// Restore headroom: rebalance re-admits entries up to the new budget.
	r.SetAggregateBudget(kernels + 1<<20)
	if syn1.HETSizeBytes() == 0 || syn2.HETSizeBytes() == 0 {
		t.Fatal("HET not re-admitted after budget increase")
	}
	st := r.Stats()
	if st.AggregateBudget != kernels+1<<20 || st.TotalBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRegistryRebalanceInvalidatesCache(t *testing.T) {
	doc, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	// Teach the HET an exact cardinality and warm the cache with it.
	const q = "/a/c/s/s/t"
	actual, _ := doc.Count(q)
	if err := r.Feedback("fig2", q, float64(actual)); err != nil {
		t.Fatal(err)
	}
	warm, err := r.Estimate(context.Background(), "fig2", q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Estimate != float64(actual) {
		t.Fatalf("tuned estimate = %v, want %d", warm.Estimate, actual)
	}
	// Shrinking the aggregate budget to the kernel evicts the HET; the
	// warm cache must not keep serving the HET-backed value.
	r.SetAggregateBudget(syn.KernelSizeBytes())
	cold, err := r.Estimate(context.Background(), "fig2", q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("estimate after rebalance served a pre-rebalance cache entry")
	}
}

// TestRegistryRebalanceConcurrentWithUpdates races registry membership
// churn (which rebalances and reads kernel sizes) against kernel mutations
// on an existing entry; meaningful under -race.
func TestRegistryRebalanceConcurrentWithUpdates(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 64<<10)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := r.AddSubtree("fig2", []string{"a"}, "<u/>"); err != nil {
				t.Error(err)
				return
			}
			if err := r.RemoveSubtree("fig2", []string{"a"}, "<u/>"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			_, other := buildFixtureSynopsis(t, nil)
			if _, err := r.Add("churn", other, "test"); err != nil {
				t.Error(err)
				return
			}
			if err := r.Delete("churn"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestRegistryBatchDeduplicatesMisses(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(0, 0)
	e, err := r.Add("fig2", syn, "test")
	if err != nil {
		t.Fatal(err)
	}
	// Three spellings of one query plus one distinct query: the synopsis
	// must be consulted exactly twice, and all items must be answered.
	items, err := r.EstimateBatch(context.Background(), "fig2", []string{"/a/c/s", "/a/c/s", "/a/c/s", "/a/u"}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Error != nil || it.Estimate <= 0 {
			t.Fatalf("item %d = %+v", i, it)
		}
	}
	if items[0].Estimate != items[1].Estimate || items[1].Estimate != items[2].Estimate {
		t.Fatalf("duplicate queries disagree: %+v", items[:3])
	}
	if n := e.Info().Estimates; n != 2 {
		t.Fatalf("uncached estimates = %d, want 2 (deduplicated)", n)
	}
}

// TestRegistryPersistRoundtrip proves estimates are identical before and
// after a serialize→load cycle, served through the registry.
func TestRegistryPersistRoundtrip(t *testing.T) {
	doc, syn := buildFixtureSynopsis(t, nil)
	queries := []string{"/a/c/s", "/a/c/s/s/t", "//s//p", "/a/c/s[p]/t", "//s[t]", "/a/*/s"}
	// Tune the synopsis first so the roundtrip also covers HET state.
	r := NewRegistry(0, 0)
	if _, err := r.Add("orig", syn, "test"); err != nil {
		t.Fatal(err)
	}
	actual, _ := doc.Count("/a/c/s")
	if err := r.Feedback("orig", "/a/c/s", float64(actual)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := syn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := xseed.ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("loaded", loaded, "roundtrip"); err != nil {
		t.Fatal(err)
	}
	want, err := r.EstimateBatch(context.Background(), "orig", queries, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.EstimateBatch(context.Background(), "loaded", queries, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if want[i].Error != nil || got[i].Error != nil {
			t.Fatalf("query %s errored: %v / %v", queries[i], want[i].Error, got[i].Error)
		}
		if want[i].Estimate != got[i].Estimate {
			t.Errorf("%s: original %v, loaded %v", queries[i], want[i].Estimate, got[i].Estimate)
		}
	}
}

// TestRegistryConcurrentHammer drives one registry entry with parallel
// estimates, feedback, and subtree updates; run under -race it proves the
// RWMutex discipline makes the non-thread-safe library serve safely.
func TestRegistryConcurrentHammer(t *testing.T) {
	doc, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(512, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	queries := []string{"/a/c/s", "/a/c/s/s/t", "//s//p", "/a/c/s[p]/t", "//s[t]", "/a/u", "/a/*/s"}
	actual, _ := doc.Count("/a/c/s")

	var wg sync.WaitGroup
	const rounds = 60
	// Parallel estimators, mixing batch and single calls.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := r.EstimateBatch(context.Background(), "fig2", queries, false); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Estimate(context.Background(), "fig2", queries[(g+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Feedback writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := r.Feedback("fig2", "/a/c/s", float64(actual)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Subtree updater (balanced add/remove keeps the kernel consistent).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := r.AddSubtree("fig2", []string{"a"}, "<u/>"); err != nil {
				t.Error(err)
				return
			}
			if err := r.RemoveSubtree("fig2", []string{"a"}, "<u/>"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Stats readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			r.Stats()
		}
	}()
	wg.Wait()

	// The document is back to its original shape; a fresh estimate must
	// agree with a never-hammered synopsis.
	_, control := buildFixtureSynopsis(t, nil)
	got, err := r.Estimate(context.Background(), "fig2", "/a/u")
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.Estimate("/a/u")
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want {
		t.Fatalf("post-hammer /a/u estimate = %v, want %v", got.Estimate, want)
	}
}

func TestPreloadSpecErrors(t *testing.T) {
	r := NewRegistry(0, 0)
	for _, bad := range []string{"noequals", "=path", "name="} {
		if err := Preload(r, []string{bad}); err == nil {
			t.Errorf("Preload(%q) succeeded", bad)
		}
	}
	if err := Preload(r, []string{fmt.Sprintf("x=%s", t.TempDir()+"/missing.xsd")}); err == nil {
		t.Error("Preload of missing file succeeded")
	}
}
