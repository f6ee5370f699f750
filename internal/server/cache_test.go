package server

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"xseed"
)

// fixtureSnapshot returns the Figure 2 synopsis and its current snapshot.
func fixtureSnapshot(t testing.TB) (*xseed.Synopsis, *xseed.Snapshot) {
	t.Helper()
	_, syn := buildFixtureSynopsis(t, nil)
	return syn, syn.Snapshot()
}

// retune feeds back one more than the current estimate of a Figure 2
// simple path, so the synopsis publishes a newer snapshot, and returns it.
// A bare Publish, like feedback that confirms a value the synopsis already
// holds, keeps the current snapshot.
func retune(t testing.TB, syn *xseed.Synopsis) *xseed.Snapshot {
	t.Helper()
	const q = "/a/c/s/s/t"
	before := syn.Snapshot()
	est, err := before.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Feedback(q, est+1); err != nil {
		t.Fatal(err)
	}
	sn := syn.Snapshot()
	if sn.Version() != before.Version()+1 {
		t.Fatalf("feedback changing %s: version %d -> %d, want a publication", q, before.Version(), sn.Version())
	}
	return sn
}

// putAt compiles q against sn and fills its entry of synopsis id at sn's
// version, with no parse + compile cost on record.
func putAt(c *Cache, sn *xseed.Snapshot, id uint64, q string, v EstimateResult, ten *Tenant) *xseed.Plan {
	pl := sn.Compile(xseed.MustParseQuery(q))
	c.Put(cacheKey{id: id, query: q}, pl, 0, v, sn.Version(), ten)
	return pl
}

// getAt looks q of synopsis id up for a batch pinned to sn.
func getAt(c *Cache, sn *xseed.Snapshot, id uint64, q string, ten *Tenant) (EstimateResult, bool) {
	_, _, v, ok := c.Get(cacheKey{id: id, query: q}, sn, ten)
	return v, ok
}

func TestCacheGetPut(t *testing.T) {
	_, sn := fixtureSnapshot(t)
	c := NewCache(64)
	if _, ok := getAt(c, sn, 1, "/a/b", nil); ok {
		t.Fatal("hit on empty cache")
	}
	putAt(c, sn, 1, "/a/b", EstimateResult{Est: 7}, nil)
	v, ok := getAt(c, sn, 1, "/a/b", nil)
	if !ok || v.Est != 7 {
		t.Fatalf("got %v %v, want 7 true", v, ok)
	}
	// Same query under another synopsis is a distinct key.
	if _, ok := getAt(c, sn, 2, "/a/b", nil); ok {
		t.Fatal("key leaked across synopses")
	}
	// Overwrite.
	putAt(c, sn, 1, "/a/b", EstimateResult{Est: 9}, nil)
	v, _ = getAt(c, sn, 1, "/a/b", nil)
	if v.Est != 9 {
		t.Fatalf("overwrite lost: %v", v)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want entries=1 hits=2 misses=2", st)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	_, sn := fixtureSnapshot(t)
	// Capacity numShards means one entry per shard: inserting two keys that
	// land in the same shard must evict the older one.
	c := NewCache(numShards)
	keys := sameShardKeys(c, 1, 2)
	a, b := keys[0], keys[1]
	putAt(c, sn, 1, a, EstimateResult{Est: 1}, nil)
	putAt(c, sn, 1, b, EstimateResult{Est: 2}, nil)
	if _, ok := getAt(c, sn, 1, a, nil); ok {
		t.Fatalf("%s should have been evicted by %s", a, b)
	}
	if v, ok := getAt(c, sn, 1, b, nil); !ok || v.Est != 2 {
		t.Fatalf("%s missing after eviction of %s", b, a)
	}

	// A lookup refreshes recency: with room for two, touching the older
	// entry makes the newer one the victim of a third fill.
	c = NewCache(2 * numShards)
	keys = sameShardKeys(c, 1, 3)
	putAt(c, sn, 1, keys[0], EstimateResult{Est: 1}, nil)
	putAt(c, sn, 1, keys[1], EstimateResult{Est: 2}, nil)
	getAt(c, sn, 1, keys[0], nil)
	putAt(c, sn, 1, keys[2], EstimateResult{Est: 3}, nil)
	if _, ok := getAt(c, sn, 1, keys[1], nil); ok {
		t.Fatal("least recently used entry survived")
	}
	if _, ok := getAt(c, sn, 1, keys[0], nil); !ok {
		t.Fatal("recently read entry was evicted")
	}
}

// TestCacheCapacityBound pins the satellite fix: the configured capacity is
// a true total bound, not a per-shard round-up (capacity 1 used to inflate
// to one entry per shard, 16 resident).
func TestCacheCapacityBound(t *testing.T) {
	_, sn := fixtureSnapshot(t)
	for _, capacity := range []int{1, 2, 7, numShards, 33, 100} {
		c := NewCache(capacity)
		for i := 0; i < 500; i++ {
			putAt(c, sn, 1, fmt.Sprintf("/q%d", i), EstimateResult{Est: float64(i)}, nil)
		}
		if got := c.Stats().Entries; got > capacity {
			t.Errorf("capacity %d: %d resident entries", capacity, got)
		}
	}
	// A tiny cache still serves: a key landing in the one live shard sticks.
	c := NewCache(1)
	var kept string
	for i := 0; ; i++ {
		q := fmt.Sprintf("/q%d", i)
		if c.shardFor(cacheKey{id: 1, query: q}) == 0 {
			kept = q
			break
		}
	}
	putAt(c, sn, 1, kept, EstimateResult{Est: 42}, nil)
	if v, ok := getAt(c, sn, 1, kept, nil); !ok || v.Est != 42 {
		t.Fatalf("capacity-1 cache lost its only admissible entry: %v %v", v, ok)
	}
	// Keys hashing to zero-capacity shards are refused, not crashed on.
	for i := 0; i < 64; i++ {
		putAt(c, sn, 1, fmt.Sprintf("/z%d", i), EstimateResult{Est: 1}, nil)
	}
	if got := c.Stats().Entries; got > 1 {
		t.Fatalf("capacity-1 cache holds %d entries", got)
	}
}

func TestCacheConcurrent(t *testing.T) {
	syn, sn := fixtureSnapshot(t)
	c := NewCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q := fmt.Sprintf("/q%d", i%64)
				putAt(c, sn, 1, q, EstimateResult{Est: float64(i)}, nil)
				getAt(c, sn, 1, q, nil)
				getAt(c, syn.Snapshot(), 1, q, nil)
				c.Stats()
			}
		}(g)
	}
	// Publishes race the fills: lookups at the newer versions serve plans.
	for i := 0; i < 50; i++ {
		retune(t, syn)
	}
	wg.Wait()
}

// sameShardKeys returns n query strings of synopsis id that all land in
// one shard of c, so eviction behavior is deterministic.
func sameShardKeys(c *Cache, id uint64, n int) []string {
	var out []string
	target := c.shardFor(cacheKey{id: id, query: "/probe"})
	for i := 0; len(out) < n; i++ {
		q := fmt.Sprintf("/k%d", i)
		if c.shardFor(cacheKey{id: id, query: q}) == target {
			out = append(out, q)
		}
	}
	return out
}

// TestCacheCostAwareEviction pins the cache-admission satellite: under
// pressure the LRU tail prefers dropping cheap entries, so an expensive
// (deep/recursive) estimate outlives a flood of cheap ones regardless of
// insertion order, while equal costs keep plain LRU order.
func TestCacheCostAwareEviction(t *testing.T) {
	_, sn := fixtureSnapshot(t)
	// Expensive first, cheap second: the cheap newcomer is the victim.
	c := NewCache(numShards)
	keys := sameShardKeys(c, 1, 3)
	putAt(c, sn, 1, keys[0], EstimateResult{Est: 1, CostNs: 1_000_000}, nil)
	putAt(c, sn, 1, keys[1], EstimateResult{Est: 2, CostNs: 10}, nil)
	if _, ok := getAt(c, sn, 1, keys[0], nil); !ok {
		t.Fatal("expensive entry evicted by a cheap newcomer")
	}
	if _, ok := getAt(c, sn, 1, keys[1], nil); ok {
		t.Fatal("cheap newcomer admitted over a more expensive resident")
	}

	// Cheap first, expensive second: the cheap resident is the victim.
	c = NewCache(numShards)
	putAt(c, sn, 1, keys[0], EstimateResult{Est: 1, CostNs: 10}, nil)
	putAt(c, sn, 1, keys[1], EstimateResult{Est: 2, CostNs: 1_000_000}, nil)
	if _, ok := getAt(c, sn, 1, keys[1], nil); !ok {
		t.Fatal("expensive newcomer not admitted")
	}
	if _, ok := getAt(c, sn, 1, keys[0], nil); ok {
		t.Fatal("cheap resident survived an expensive newcomer")
	}

	// The cost compared is the whole one: a cheap run behind an expensive
	// parse + compile still outranks a cheap entry.
	c = NewCache(numShards)
	c.Put(cacheKey{id: 1, query: keys[0]}, sn.Compile(xseed.MustParseQuery(keys[0])), 1_000_000,
		EstimateResult{Est: 1, CostNs: 10}, sn.Version(), nil)
	putAt(c, sn, 1, keys[1], EstimateResult{Est: 2, CostNs: 500}, nil)
	if _, ok := getAt(c, sn, 1, keys[0], nil); !ok {
		t.Fatal("entry with an expensive compile evicted by a cheaper newcomer")
	}

	// Equal costs: plain LRU (oldest goes) — the tiebreak never reorders
	// recency among equals.
	c = NewCache(numShards)
	putAt(c, sn, 1, keys[0], EstimateResult{Est: 1, CostNs: 50}, nil)
	putAt(c, sn, 1, keys[1], EstimateResult{Est: 2, CostNs: 50}, nil)
	if _, ok := getAt(c, sn, 1, keys[0], nil); ok {
		t.Fatal("equal-cost eviction did not follow LRU order")
	}
	if _, ok := getAt(c, sn, 1, keys[1], nil); !ok {
		t.Fatal("equal-cost newest entry missing")
	}
}

// TestCacheCostSaved: a hit at the pinned version credits the entry's whole
// recorded cost (parse + compile + run) to costSavedNs, and a plan served
// at a newer version credits its parse + compile cost.
func TestCacheCostSaved(t *testing.T) {
	syn, sn := fixtureSnapshot(t)
	c := NewCache(64)
	k := cacheKey{id: 1, query: "/a/b"}
	p := sn.Compile(xseed.MustParseQuery("/a/b"))
	c.Put(k, p, 200, EstimateResult{Est: 7, CostNs: 500}, sn.Version(), nil)
	c.Get(k, sn, nil)
	c.Get(k, sn, nil)
	c.Get(cacheKey{id: 1, query: "/missing"}, sn, nil) // misses credit nothing
	if got := c.Stats().CostSavedNs; got != 1400 {
		t.Fatalf("costSavedNs = %d, want 1400", got)
	}
	newer := retune(t, syn)
	got, planNs, _, ok := c.Get(k, newer, nil)
	if ok || got != p || planNs != 200 {
		t.Fatalf("lookup at a newer version = %v %d %v, want the plan, its compile cost 200 and no estimate", got, planNs, ok)
	}
	if got := c.Stats().CostSavedNs; got != 1600 {
		t.Fatalf("costSavedNs after a plan hit = %d, want 1600", got)
	}
	// A refill hands back the compile cost the lookup returned.
	c.Put(k, got, planNs, EstimateResult{Est: 8, CostNs: 300}, newer.Version(), nil)
	if _, _, v, ok := c.Get(k, newer, nil); !ok || v.Est != 8 || v.CostNs != 500 {
		t.Fatalf("refilled entry = %+v %v, want est 8 cost 500", v, ok)
	}
	st := c.Stats()
	if st.CostSavedNs != 2100 {
		t.Fatalf("costSavedNs after the refill hit = %d, want 2100", st.CostSavedNs)
	}
	if st.PlanHits != 4 || st.PlanMisses != 1 || st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("counters = %+v, want planHits=4 planMisses=1 hits=3 misses=2", st)
	}
}

// TestCacheRecreatedEntryKeepsCompileCost: when the entry whose plan a
// lookup served is evicted before the fill, the fill recreates it with the
// compile cost the lookup returned, so eviction and costSavedNs still see
// the whole parse + compile + run cost.
func TestCacheRecreatedEntryKeepsCompileCost(t *testing.T) {
	syn, sn := fixtureSnapshot(t)
	c := NewCache(numShards) // one entry per shard
	keys := sameShardKeys(c, 1, 2)
	k := cacheKey{id: 1, query: keys[0]}
	c.Put(k, sn.Compile(xseed.MustParseQuery("/a/b")), 200, EstimateResult{Est: 7, CostNs: 100}, sn.Version(), nil)
	newer := retune(t, syn)
	pl, planNs, _, _ := c.Get(k, newer, nil)
	putAt(c, newer, 1, keys[1], EstimateResult{Est: 1}, nil) // evicts k
	if _, ok := getAt(c, newer, 1, keys[0], nil); ok {
		t.Fatal("entry survived a full shard's next fill")
	}
	c.Put(k, pl, planNs, EstimateResult{Est: 8, CostNs: 300}, newer.Version(), nil)
	if v, ok := getAt(c, newer, 1, keys[0], nil); !ok || v.CostNs != 500 {
		t.Fatalf("recreated entry = %+v %v, want cost 200 + 300", v, ok)
	}
}

// TestCacheCostEvictionScopeBound: the cost tiebreak never reaches across
// synopsis registrations — an expensive entry of a retired (unreachable)
// registration at the LRU tail must not outrank live cheap fills, or a
// small shard would starve.
func TestCacheCostEvictionScopeBound(t *testing.T) {
	_, sn := fixtureSnapshot(t)
	c := NewCache(numShards)
	const dead = 1
	keys := sameShardKeys(c, dead, 2)
	putAt(c, sn, dead, keys[0], EstimateResult{Est: 1, CostNs: 1_000_000}, nil)
	// Another registration's cheap fill lands in the same shard: find an id
	// that hashes there.
	live, target := uint64(2), c.shardFor(cacheKey{id: dead, query: keys[0]})
	for c.shardFor(cacheKey{id: live, query: keys[0]}) != target {
		live++
	}
	putAt(c, sn, live, keys[0], EstimateResult{Est: 2, CostNs: 10}, nil)
	if _, ok := getAt(c, sn, live, keys[0], nil); !ok {
		t.Fatal("live cheap fill starved by a dead registration's expensive entry")
	}
	if _, ok := getAt(c, sn, dead, keys[0], nil); ok {
		t.Fatal("dead registration's LRU-tail entry survived cross-registration pressure")
	}
}

// TestCacheNewerVersionServesPlanOnly: after a publish the entry's estimate
// is stale, but its plan is still current, so a lookup returns the plan
// with no estimate and counts a plan hit and an estimate miss.
func TestCacheNewerVersionServesPlanOnly(t *testing.T) {
	syn, sn := fixtureSnapshot(t)
	c := NewCache(64)
	p := putAt(c, sn, 1, "/a/c/s", EstimateResult{Est: 5}, nil)
	newer := retune(t, syn)
	before := c.Stats()
	got, _, v, ok := c.Get(cacheKey{id: 1, query: "/a/c/s"}, newer, nil)
	if ok || got != p || v != (EstimateResult{}) {
		t.Fatalf("lookup at version %d = %v %+v %v, want the plan only", newer.Version(), got, v, ok)
	}
	after := c.Stats()
	if after.PlanHits != before.PlanHits+1 || after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Fatalf("counters %+v -> %+v, want planHits+1 hits+0 misses+1", before, after)
	}
}

// TestCacheOlderFillKeepsNewerEstimate: a batch pinned to an older snapshot
// can finish after one pinned to a newer snapshot; its fill must not
// replace the newer estimate.
func TestCacheOlderFillKeepsNewerEstimate(t *testing.T) {
	syn, older := fixtureSnapshot(t)
	newer := retune(t, syn)
	c := NewCache(64)
	putAt(c, newer, 1, "/a/c/s", EstimateResult{Est: 2}, nil)
	putAt(c, older, 1, "/a/c/s", EstimateResult{Est: 1}, nil)
	if v, ok := getAt(c, newer, 1, "/a/c/s", nil); !ok || v.Est != 2 {
		t.Fatalf("newer estimate = %v %v, want 2 true", v, ok)
	}
	if _, ok := getAt(c, older, 1, "/a/c/s", nil); ok {
		t.Fatal("the older version's estimate was stored over the newer one")
	}
}

// TestCacheStalePlanIsMiss: a plan compiled before the dictionary grew is a
// miss, not a hit — no plan, no estimate, no hit counter, no costSaved
// credit — since the caller re-pays the full parse + compile.
func TestCacheStalePlanIsMiss(t *testing.T) {
	syn, sn := fixtureSnapshot(t)
	c := NewCache(64)
	c.Put(cacheKey{id: 1, query: "/a/b"}, sn.Compile(xseed.MustParseQuery("/a/b")), 100,
		EstimateResult{Est: 3, CostNs: 100}, sn.Version(), nil)
	if err := syn.AddSubtree([]string{"a"}, "<brandnewlabel/>"); err != nil {
		t.Fatal(err)
	}
	grown := syn.Snapshot()
	before := c.Stats()
	if pl, _, _, ok := c.Get(cacheKey{id: 1, query: "/a/b"}, grown, nil); pl != nil || ok {
		t.Fatalf("stale plan served after dictionary growth: %v %v", pl, ok)
	}
	after := c.Stats()
	if after.PlanHits != before.PlanHits || after.PlanMisses != before.PlanMisses+1 ||
		after.Hits != before.Hits || after.CostSavedNs != before.CostSavedNs {
		t.Fatalf("stale plan lookup counted as a hit: %+v -> %+v", before, after)
	}
}

// TestCacheOneEntryPerQuery: a query's plan and estimate share one entry,
// across refills at newer versions too.
func TestCacheOneEntryPerQuery(t *testing.T) {
	syn, sn := fixtureSnapshot(t)
	c := NewCache(64)
	k := cacheKey{id: 1, query: "/a/c/s"}
	p := putAt(c, sn, 1, k.query, EstimateResult{Est: 5}, nil)
	for i := 0; i < 3; i++ {
		newer := retune(t, syn)
		pl, planNs, _, _ := c.Get(k, newer, nil)
		c.Put(k, pl, planNs, EstimateResult{Est: 5}, newer.Version(), nil)
		if pl != p {
			t.Fatalf("refill %d recompiled the plan", i)
		}
	}
	if got := c.Stats().Entries; got != 1 {
		t.Fatalf("one query occupies %d entries", got)
	}
}

// TestCachePutCopiesQuery: a new entry stores its own copy of its query,
// never a view into the larger string (a decoded request frame) the query
// came from, and a refill keeps the copy already stored.
func TestCachePutCopiesQuery(t *testing.T) {
	_, sn := fixtureSnapshot(t)
	c := NewCache(64)
	frame := "\x00fig2\x00/a/c/s\x00/a/u"
	q := frame[6:12]
	inFrame := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(frame)))
		return p >= lo && p < lo+uintptr(len(frame))
	}
	if q != "/a/c/s" || !inFrame(q) {
		t.Fatalf("test query %q is not a view into its frame", q)
	}
	stored := func() string {
		s := &c.shards[c.shardFor(cacheKey{id: 1, query: q})]
		s.mu.Lock()
		defer s.mu.Unlock()
		el, ok := s.items[cacheKey{id: 1, query: q}]
		if !ok {
			t.Fatalf("%s has no entry", q)
		}
		e := el.Value.(*cacheEntry)
		for k := range s.items {
			if k == e.key && unsafe.StringData(k.query) != unsafe.StringData(e.key.query) {
				t.Fatal("the map key and the entry hold different copies of the query")
			}
		}
		return e.key.query
	}
	putAt(c, sn, 1, q, EstimateResult{Est: 5}, nil)
	first := stored()
	if inFrame(first) {
		t.Fatal("the cache stored a view into the frame")
	}
	again := string([]byte(q))
	c.Put(cacheKey{id: 1, query: again}, sn.Compile(xseed.MustParseQuery(again)), 0, EstimateResult{Est: 6}, sn.Version(), nil)
	if got := stored(); unsafe.StringData(got) != unsafe.StringData(first) {
		t.Fatal("a refill replaced the stored query")
	}
	if v, ok := getAt(c, sn, 1, q, nil); !ok || v.Est != 6 {
		t.Fatalf("after the refill: %+v, %v; want the refilled estimate 6", v, ok)
	}
}
