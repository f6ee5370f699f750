package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
	"xseed/api"

	"xseed"
	"xseed/internal/obs"
	"xseed/internal/store"
)

var benchState struct {
	once    sync.Once
	err     error
	doc     *xseed.Document
	syn     *xseed.Synopsis
	queries []string
}

// benchSetup builds one XMark synopsis and a simple-path workload, shared
// across the latency test and the benchmarks.
func benchSetup(t testing.TB) (*xseed.Synopsis, []string) {
	benchState.once.Do(func() {
		doc, err := xseed.Generate("xmark", 0.01, 1)
		if err != nil {
			benchState.err = err
			return
		}
		syn, err := xseed.BuildSynopsis(doc, nil)
		if err != nil {
			benchState.err = err
			return
		}
		var queries []string
		for _, q := range doc.SimplePathQueries(16) {
			queries = append(queries, q.String())
		}
		benchState.doc, benchState.syn, benchState.queries = doc, syn, queries
	})
	if benchState.err != nil {
		t.Fatal(benchState.err)
	}
	if len(benchState.queries) == 0 {
		t.Fatal("no benchmark queries")
	}
	return benchState.syn, benchState.queries
}

func percentile50(durations []time.Duration) time.Duration {
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return durations[len(durations)/2]
}

// TestWarmCacheBeatsMissP50 asserts the cache still earns its keep on the
// served path: the p50 per-query latency of the batched estimate endpoint
// on a warm cache is below the same endpoint forced to miss (capacity-1
// cache). The original form of this test compared against the raw library
// estimate, which paid an EPT construction per call; estimation snapshots
// build the EPT once per synopsis version, so the honest baseline is now
// the served miss path (parse + compile + plan run) rather than the
// library.
func TestWarmCacheBeatsMissP50(t *testing.T) {
	syn, _ := benchSetup(t)

	newServer := func(capacity int) *httptest.Server {
		s, err := New(Config{CacheCapacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Registry().Add("xmark", syn, "bench"); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	warmTS := newServer(4096)
	missTS := newServer(1) // one entry total: effectively every lookup misses

	// One large batch, the shape of optimizer traffic, holds every rooted
	// simple path of the document once: duplicates within a batch share
	// their first copy's answer, so only a batch without repeats sends
	// every item of the capacity-1 side through parse, compile and plan
	// run. Per-query latency is the request duration over the batch size.
	var batch []string
	for _, q := range benchState.doc.SimplePathQueries(1 << 12) {
		batch = append(batch, q.String())
	}
	body, err := json.Marshal(api.EstimateRequest{Queries: batch})
	if err != nil {
		t.Fatal(err)
	}
	post := func(ts *httptest.Server) {
		resp, err := ts.Client().Post(ts.URL+"/v1/synopses/xmark/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out api.EstimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(out.Results) != len(batch) {
			t.Fatalf("batch estimate: status %d, %d results", resp.StatusCode, len(out.Results))
		}
	}
	post(warmTS) // warm the cache
	post(missTS) // build the EPT so both sides amortize it

	const rounds = 20
	warm := make([]time.Duration, 0, rounds)
	missed := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		post(warmTS)
		warm = append(warm, time.Since(start)/time.Duration(len(batch)))
		start = time.Now()
		post(missTS)
		missed = append(missed, time.Since(start)/time.Duration(len(batch)))
	}

	warmP50, missP50 := percentile50(warm), percentile50(missed)
	t.Logf("p50 per-query latency: warm cache %v, forced miss %v", warmP50, missP50)
	if warmP50 >= missP50 {
		t.Fatalf("warm-cache p50 %v not below forced-miss p50 %v", warmP50, missP50)
	}
}

// BenchmarkEstimateUncached is the library path every miss pays.
func BenchmarkEstimateUncached(b *testing.B) {
	syn, queries := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := syn.Estimate(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateWarmCache is the registry path on repeat traffic.
func BenchmarkEstimateWarmCache(b *testing.B) {
	syn, queries := benchSetup(b)
	r := NewRegistry(4096, 0)
	if _, err := r.Add("xmark", syn, "bench"); err != nil {
		b.Fatal(err)
	}
	if _, err := r.EstimateBatch(context.Background(), "xmark", queries, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Estimate(context.Background(), "xmark", queries[i%len(queries)], false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateDuringRebalance measures the serving path while a
// background goroutine churns the aggregate budget — the CI artifact's
// contention number. The budget flips invalidate the cache, so most
// estimates pay the full lock + estimator path while rebalance plans are
// being created and applied around them.
func BenchmarkEstimateDuringRebalance(b *testing.B) {
	syn, queries := benchSetup(b)
	r := NewRegistry(4096, 1<<20)
	r.StartRebalancer()
	defer r.Close()
	if _, err := r.Add("xmark", syn, "bench"); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.SetAggregateBudget(1<<20 + (i%2)*4096)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Estimate(context.Background(), "xmark", queries[i%len(queries)], false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkEstimateBatchWarmCache amortizes parse + lock over a batch.
func BenchmarkEstimateBatchWarmCache(b *testing.B) {
	syn, queries := benchSetup(b)
	r := NewRegistry(4096, 0)
	if _, err := r.Add("xmark", syn, "bench"); err != nil {
		b.Fatal(err)
	}
	if _, err := r.EstimateBatch(context.Background(), "xmark", queries, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EstimateBatch(context.Background(), "xmark", queries, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateStreaming measures the streaming matcher's two served
// paths over a batch of simple paths: "miss" (capacity-1 cache, so every
// query pays parse, compile and a streaming run) and "plan-rerun" (a
// feedback that changes a card before each batch publishes a snapshot that
// retires the cached estimates, so every query reruns its cached plan with
// the streaming matcher, re-parsing the plan's normalized text). The
// feedback and the new snapshot's EPT build run outside the timer.
func BenchmarkEstimateStreaming(b *testing.B) {
	_, queries := benchSetup(b)
	ctx := context.Background()
	for _, bc := range []struct {
		name     string
		capacity int
		publish  bool
	}{{"miss", 1, false}, {"plan-rerun", 4096, true}} {
		b.Run(bc.name, func(b *testing.B) {
			syn, err := xseed.BuildSynopsis(benchState.doc, nil)
			if err != nil {
				b.Fatal(err)
			}
			r := NewRegistry(bc.capacity, 0)
			if _, err := r.Add("xmark", syn, "bench"); err != nil {
				b.Fatal(err)
			}
			if _, err := r.EstimateBatch(ctx, "xmark", queries, true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.publish {
					b.StopTimer()
					const q = "/site/regions/africa/item"
					est, err := syn.Estimate(q)
					if err != nil {
						b.Fatal(err)
					}
					if err := syn.Feedback(q, est+1); err != nil {
						b.Fatal(err)
					}
					syn.Snapshot().EPTStats()
					b.StartTimer()
				}
				if _, err := r.EstimateBatch(ctx, "xmark", queries, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateParallel measures the lock-free estimate path under
// concurrency — the tentpole number. The registry's cache is capacity 1, so
// effectively every request pays the full plan-run path against the pinned
// snapshot; with the path CPU-bound instead of lock-bound, ns/op should
// drop near-linearly with -cpu (CI runs it at -cpu 1,4,8 and fails the
// bench job if 8 procs are not at least 2× faster than 1).
func BenchmarkEstimateParallel(b *testing.B) {
	syn, queries := benchSetup(b)
	r := NewRegistry(1, 0) // capacity-1 cache: estimates always miss
	if _, err := r.Add("xmark", syn, "bench"); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.EstimateBatch(ctx, "xmark", queries, false); err != nil {
		b.Fatal(err) // build the snapshot's EPT once, outside the timer
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := r.Estimate(ctx, "xmark", queries[i%len(queries)], false); err != nil {
				b.Error(err) // FailNow must not run on a RunParallel worker
				return
			}
			i++
		}
	})
}

// BenchmarkEstimateMultiTenant measures the warm-cache estimate path on a
// tenanted registry: four tenants, each with its own synopsis, quota, and
// rate limit, hit from parallel workers. Comparing against
// BenchmarkEstimateWarmCache exposes what tenancy costs the hot path — the
// intended answer is "one pointer indirection and a striped counter bump".
func BenchmarkEstimateMultiTenant(b *testing.B) {
	syn, queries := benchSetup(b)
	cfgs := []TenantConfig{
		{ID: "t0", Token: "tok0", CacheQuota: 1 << 16, RatePerSec: 1e9, Burst: 1e9},
		{ID: "t1", Token: "tok1", CacheQuota: 1 << 16, RatePerSec: 1e9, Burst: 1e9},
		{ID: "t2", Token: "tok2"},
		{ID: "t3", Token: "tok3"},
	}
	ts, err := NewTenantSet(obs.Disabled, cfgs)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRegistry(4096, 0)
	r.AttachTenants(ts)
	ctx := context.Background()
	keys := make([]string, len(cfgs))
	tens := make([]*Tenant, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = store.Key(cfg.ID, "xmark")
		tens[i] = ts.lookup(cfg.ID)
		if _, err := r.Add(keys[i], syn, "bench"); err != nil {
			b.Fatal(err)
		}
		if _, err := r.EstimateBatch(ctx, keys[i], queries, false); err != nil {
			b.Fatal(err) // warm each tenant's cache and EPT outside the timer
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ten := i % len(keys)
			if !tens[ten].allowN(1) {
				b.Error("rate limiter rejected a benchmark request")
				return
			}
			if _, err := r.Estimate(ctx, keys[ten], queries[i%len(queries)], false); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkEstimateDuringFeedbackStorm measures estimate latency while
// feedback continuously mutates the same synopsis — every applied feedback
// publishes a successor snapshot and retires the estimate cache, so this is
// the worst case for the lock-free read path. Before the snapshot refactor
// each feedback held the entry's write lock across a full estimate +
// table-rank update and every estimate queued behind it; now the measured
// path never blocks on the storm. The p99 is reported alongside the mean.
func BenchmarkEstimateDuringFeedbackStorm(b *testing.B) {
	doc, err := xseed.Generate("xmark", 0.01, 2)
	if err != nil {
		b.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		b.Fatal(err)
	}
	var queries []string
	for _, q := range doc.SimplePathQueries(16) {
		queries = append(queries, q.String())
	}
	r := NewRegistry(4096, 0)
	if _, err := r.Add("storm", syn, "bench"); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.EstimateBatch(ctx, "storm", queries, false); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.Feedback("storm", queries[(g+i)%len(queries)], float64(1+i%17)); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	b.ResetTimer()
	lat := make([]time.Duration, 0, b.N)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := r.Estimate(ctx, "storm", queries[i%len(queries)], false); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		p99 := len(lat) - 1 - (len(lat)-1)/100
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[p99].Nanoseconds()), "p99-ns")
	}
}

// BenchmarkEstimateObsOverhead is the paired benchmark behind the metrics
// layer's acceptance gate: the always-miss estimate path (capacity-1 cache,
// so every query pays cache probe + parse + compile + plan run, the fully
// instrumented route) with a live obs.Registry versus obs.Disabled. CI
// fails the bench job if the instrumented side exceeds the disabled side by
// more than 3%.
func BenchmarkEstimateObsOverhead(b *testing.B) {
	syn, queries := benchSetup(b)
	run := func(b *testing.B, om *obs.Registry) {
		r := NewRegistryObs(1, 0, om)
		if _, err := r.Add("xmark", syn, "bench"); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := r.EstimateBatch(ctx, "xmark", queries, false); err != nil {
			b.Fatal(err) // build the snapshot's EPT outside the timer
		}
		// Collect the setup garbage (EPT construction, registry churn from
		// the paired side) before timing: whichever side happens to host the
		// GC cycle would otherwise absorb its pause and skew the comparison.
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Estimate(ctx, "xmark", queries[i%len(queries)], false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("instrumented", func(b *testing.B) { run(b, obs.NewRegistry()) })
	b.Run("disabled", func(b *testing.B) { run(b, obs.Disabled) })
}

// BenchmarkMetricsScrape is the cost of one /metrics render against a
// registry with live per-synopsis series and traffic in every family.
func BenchmarkMetricsScrape(b *testing.B) {
	syn, queries := benchSetup(b)
	om := obs.NewRegistry()
	r := NewRegistryObs(4096, 0, om)
	if _, err := r.Add("xmark", syn, "bench"); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.EstimateBatch(ctx, "xmark", queries, false); err != nil {
		b.Fatal(err)
	}
	for i, q := range queries {
		if err := r.Feedback("xmark", q, float64(1+i%7)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := om.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedbackBatchPublish is the batched mutator path: one
// FeedbackBatch of 64 observations per op, applied under a single entry
// critical section and published as at most ONE successor snapshot.
// Against BenchmarkFeedbackPublish (one publication per event) the delta is
// the coalesced publication economics: the view derivation and snapshot
// swap are paid once per 64 events instead of once per event.
func BenchmarkFeedbackBatchPublish(b *testing.B) {
	doc, err := xseed.Generate("xmark", 0.01, 3)
	if err != nil {
		b.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, &xseed.Config{HET: &xseed.HETConfig{FeedbackOnly: true}})
	if err != nil {
		b.Fatal(err)
	}
	r := NewRegistry(64, 0)
	if _, err := r.Add("fb", syn, "bench"); err != nil {
		b.Fatal(err)
	}
	var queries []string
	for _, q := range doc.SimplePathQueries(0) {
		queries = append(queries, q.String())
	}
	for i, q := range queries { // seed the resident set
		if err := r.Feedback("fb", q, float64(1+i)); err != nil {
			b.Fatal(err)
		}
	}
	const batch = 64
	items := make([]api.FeedbackItem, batch)
	for i := range items {
		items[i] = api.FeedbackItem{Query: queries[i%len(queries)], Actual: float64(1 + i%23)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs, err := r.FeedbackBatch("fb", items)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range errs {
			if e != nil {
				b.Fatal(e)
			}
		}
	}
	b.ReportMetric(float64(batch), "events/op")
}

// BenchmarkFeedbackDurable is the paired benchmark behind the group-commit
// acceptance gate: the per-event durable path (-store-fsync, one fsync per
// feedback) versus a 64-event batch under -store-fsync=batch (one group
// commit per batch). Both sides ack only after their bytes are fsynced.
// CI computes per-event throughput from ns/op (the batch side carries 64
// events per op) and fails the bench job if batching is not >=3x faster.
// The flush window is deliberately tiny: an idle store flushes at once, but
// a sequential caller whose rounds start less than one window apart still
// waits out the spacing between flushes, and the production 2ms default
// would measure the timer, not the write path.
func BenchmarkFeedbackDurable(b *testing.B) {
	run := func(b *testing.B, fsync string, batch int) {
		s, err := New(Config{
			StoreDir:          b.TempDir(),
			StoreFsync:        fsync,
			StoreBatchLatency: 50 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		reg := s.Registry()
		if _, err := reg.Add("fb", tenantTestSynopsis(b), "bench"); err != nil {
			b.Fatal(err)
		}
		queries := []string{"/a/c/s/s/t", "/a/c/s", "/a/c/p", "/a/t", "/a/c/s/p", "/a/c/s/s", "/a/c/t", "/a/c/s[t]/p"}
		items := make([]api.FeedbackItem, batch)
		for i := range items {
			items[i] = api.FeedbackItem{Query: queries[i%len(queries)], Actual: float64(1 + i%17)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if batch == 1 {
				if err := reg.Feedback("fb", items[0].Query, float64(1+i%17)); err != nil {
					b.Fatal(err)
				}
				continue
			}
			errs, err := reg.FeedbackBatch("fb", items)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range errs {
				if e != nil {
					b.Fatal(e)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(batch), "events/op")
	}
	b.Run("event", func(b *testing.B) { run(b, "every", 1) })
	b.Run("batch64", func(b *testing.B) { run(b, "batch", 64) })
}

// BenchmarkFeedbackPublish measures the mutator side of the snapshot
// design: each applied feedback pays the HET rank upsert plus the snapshot
// publication (a hyper-edge view derived from the last one — the price of
// lock-free readers). The cards fed back cycle with a period of 23 over
// the resident paths, so nearly every event changes one and publishes.
func BenchmarkFeedbackPublish(b *testing.B) {
	doc, err := xseed.Generate("xmark", 0.01, 3)
	if err != nil {
		b.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, &xseed.Config{HET: &xseed.HETConfig{FeedbackOnly: true}})
	if err != nil {
		b.Fatal(err)
	}
	r := NewRegistry(64, 0)
	if _, err := r.Add("fb", syn, "bench"); err != nil {
		b.Fatal(err)
	}
	var queries []string
	for _, q := range doc.SimplePathQueries(0) {
		queries = append(queries, q.String())
	}
	for i, q := range queries { // seed the resident set
		if err := r.Feedback("fb", q, float64(1+i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Feedback("fb", queries[i%len(queries)], float64(1+i%23)); err != nil {
			b.Fatal(err)
		}
	}
}
