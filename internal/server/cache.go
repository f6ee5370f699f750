package server

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"xseed"
	"xseed/api"
	"xseed/internal/pathhash"
)

// numShards is the number of independently locked cache shards. Shard
// selection hashes the full (synopsis, query) key, so concurrent estimate
// traffic — even against a single synopsis — spreads across locks.
const numShards = 16

// evictionWindow is how many least-recently-used entries an over-capacity
// shard considers before evicting: the cheapest (lowest CostNs) of the
// window goes, so recency still dominates but an expensive deep/recursive
// estimate outlives same-age cheap ones under pressure (the cost-aware
// LRU tiebreak of the cache-admission roadmap item).
const evictionWindow = 4

// EstimateResult is a cached estimate. CostNs records what the uncached
// computation cost (parse + compile + plan run), which (a) feeds the
// cache.costSavedNs stats counter on every later hit and (b) biases
// eviction toward cheap entries. It is wall-clock time: under a saturated
// worker pool scheduler contention inflates it somewhat, so it is an
// eviction *tiebreak* signal and a savings *estimate*, not a calibrated
// CPU-time measurement.
type EstimateResult struct {
	Est      float64
	Streamed bool
	CostNs   int64
}

// cacheKey names one query of one synopsis registration (Entry.id, so a
// re-registered name shares nothing with its predecessor). The query is the
// raw text the client sent, so that a hit skips the parse; two spellings of
// one query take two entries. Streaming-matcher results are keyed apart.
type cacheKey struct {
	id     uint64
	query  string
	stream bool
}

// cacheEntry is one query's compiled plan and the estimate it produced at
// snapshot version ver.
type cacheEntry struct {
	key    cacheKey
	plan   *xseed.Plan
	planNs int64 // what parsing and compiling plan cost (part of val.CostNs)
	val    EstimateResult
	ver    uint64
	ten    *Tenant // owner, for quota accounting (nil: unaccounted)
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int        // max entries this shard holds (0: shard is disabled)
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element

	// tenCount tracks per-tenant occupancy for quota enforcement; keys are
	// deleted at zero so an idle tenant costs nothing here.
	tenCount map[*Tenant]int
}

// Cache is a sharded LRU cache holding one entry per query: its compiled
// plan, its latest estimate, and the estimation-snapshot version that
// estimate was computed at. It serves repeat estimates without touching the
// kernel/EPT machinery or any synopsis state. Invalidation is by version: a
// mutation publishes the next snapshot, which retires every stored estimate,
// while plans — which depend only on the label dictionary — keep serving
// until a subtree update grows it (Plan.CompatibleWith).
type Cache struct {
	shards     [numShards]cacheShard
	hits       atomic.Int64 // estimates served at the pinned version
	misses     atomic.Int64
	planHits   atomic.Int64 // lookups that found a plan current for the pinned snapshot
	planMisses atomic.Int64
	costSaved  atomic.Int64 // Σ cost skipped by served hits (whole estimates and plans)
	evictions  atomic.Int64
}

// NewCache returns a cache holding at most capacity entries in total
// (capacity <= 0 picks a default of 4096). Capacity is distributed across
// the shards with the remainder spread one entry at a time, so the total is
// honored exactly: a capacity of 1 holds at most 1 entry, not one per shard.
// Shards left with zero capacity never admit entries, which costs hit rate
// at tiny capacities but keeps the configured memory bound true.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	base, rem := capacity/numShards, capacity%numShards
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].cap = base
		if i < rem {
			c.shards[i].cap++
		}
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[cacheKey]*list.Element)
		c.shards[i].tenCount = make(map[*Tenant]int)
	}
	return c
}

func (c *Cache) shardFor(k cacheKey) int {
	return int(pathhash.AddLabel(uint32(k.id), k.query) % numShards)
}

// Get looks k up for a batch pinned to sn. It returns the entry's plan, with
// the parse and compile cost recorded for it, when that plan is current for
// sn, and the estimate (hit true) only when it was computed at sn's version;
// a plan alone lets the caller rerun it without parse or compile, and hand
// planNs back to Put. ten (may be nil) receives the tenant-scoped estimate
// hit/miss accounting, striped per shard and bumped under the shard lock
// already held, so tenant stats add no atomics contended across shards.
func (c *Cache) Get(k cacheKey, sn *xseed.Snapshot, ten *Tenant) (plan *xseed.Plan, planNs int64, v EstimateResult, hit bool) {
	si := c.shardFor(k)
	s := &c.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		e := el.Value.(*cacheEntry)
		if e.ver == sn.Version() {
			hit, plan, planNs, v = true, e.plan, e.planNs, e.val
			c.costSaved.Add(e.val.CostNs)
		} else if e.plan.CompatibleWith(sn) {
			plan, planNs = e.plan, e.planNs
			c.costSaved.Add(e.planNs)
		}
		if plan != nil {
			s.ll.MoveToFront(el)
		}
	}
	if plan != nil {
		c.planHits.Add(1)
	} else {
		c.planMisses.Add(1)
	}
	if hit {
		c.hits.Add(1)
		if ten != nil {
			ten.hits.add(si)
		}
	} else {
		c.misses.Add(1)
		if ten != nil {
			ten.misses.add(si)
		}
	}
	return plan, planNs, v, hit
}

// countRepeatHits credits n estimates served from the cache without a
// probe of their own — a batch's repeats of queries whose probe hit — as
// the hits their probes would have been: an estimate hit and a plan hit
// each, and saved the cost their entries record.
func (c *Cache) countRepeatHits(n int, savedNs int64, ten *Tenant) {
	c.hits.Add(int64(n))
	c.planHits.Add(int64(n))
	c.costSaved.Add(savedNs)
	if ten != nil {
		ten.hits[0].Add(int64(n)) // any stripe: one add per batch
	}
}

// Put stores plan and the estimate v it produced at snapshot version ver;
// planNs is what parsing and compiling plan cost (for a plan Get supplied,
// the cost Get returned with it, so an entry evicted and recreated in
// between keeps its full cost). A fill never replaces a newer version's
// estimate: a batch pinned to an older snapshot can finish last. A new entry
// evicts from the shard's least-recently-used tail when the shard is full,
// and from the owning tenant's own entries when its quota is full. A new
// entry keeps a copy of k's query, which may be a substring of a whole
// request frame, so that an entry pins only its own bytes; a refill keeps
// the copy it has.
func (c *Cache) Put(k cacheKey, plan *xseed.Plan, planNs int64, v EstimateResult, ver uint64, ten *Tenant) {
	si := c.shardFor(k)
	s := &c.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	v.CostNs += planNs
	if el, ok := s.items[k]; ok { // refill: same owner, occupancy stays put
		e := el.Value.(*cacheEntry)
		if e.ver > ver {
			return
		}
		e.plan, e.planNs, e.val, e.ver = plan, planNs, v, ver
		s.ll.MoveToFront(el)
		return
	}
	if s.cap == 0 {
		return
	}
	if ten != nil && ten.cacheQuota > 0 && s.tenCount[ten] >= ten.quotaForShard(si) {
		// Over quota: this fill may only displace one of the tenant's own
		// entries. A zero per-shard quota admits nothing (exactly like a
		// zero-capacity shard).
		if !s.evictOwn(ten) {
			return
		}
		c.evictions.Add(1)
	}
	k.query = strings.Clone(k.query)
	s.items[k] = s.ll.PushFront(&cacheEntry{key: k, plan: plan, planNs: planNs, val: v, ver: ver, ten: ten})
	if ten != nil {
		s.tenCount[ten]++
	}
	if s.ll.Len() > s.cap {
		s.evict()
		c.evictions.Add(1)
	}
}

// evictOwn removes the least-recently-used entry owned by t, reporting
// false when t has none in this shard (per-shard quota 0).
func (s *cacheShard) evictOwn(t *Tenant) bool {
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*cacheEntry); e.ten == t {
			s.removeEntry(el, e)
			return true
		}
	}
	return false
}

// removeEntry unlinks one entry and settles its tenant accounting.
func (s *cacheShard) removeEntry(el *list.Element, e *cacheEntry) {
	s.ll.Remove(el)
	delete(s.items, e.key)
	if e.ten != nil {
		if n := s.tenCount[e.ten] - 1; n > 0 {
			s.tenCount[e.ten] = n
		} else {
			delete(s.tenCount, e.ten)
		}
	}
}

// evict removes one entry: the cheapest (lowest CostNs) among the
// evictionWindow least recently used that belong to the LRU entry's
// synopsis registration, so the tail's expensive entries survive a flood of
// cheap ones. The cost tiebreak deliberately never reaches across
// registrations: a replaced or deleted synopsis's entries are unreachable,
// and letting a dead-but-expensive entry outrank live cheap fills would pin
// it forever in small shards — across registrations, plain LRU order
// applies and dead entries age out normally.
func (s *cacheShard) evict() {
	vel := s.ll.Back()
	victim := vel.Value.(*cacheEntry)
	for i, el := 1, vel.Prev(); i < evictionWindow && el != nil; i, el = i+1, el.Prev() {
		if e := el.Value.(*cacheEntry); e.key.id == victim.key.id && e.val.CostNs < victim.val.CostNs {
			vel, victim = el, e
		}
	}
	s.removeEntry(vel, victim)
}

// TenantEntries reports how many cache entries t occupies across shards
// (the quota the eviction policy enforces).
func (c *Cache) TenantEntries(t *Tenant) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.tenCount[t]
		s.mu.Unlock()
	}
	return n
}

// Stats reports entry count and hit/miss/cost counters as the wire type.
func (c *Cache) Stats() api.CacheStats {
	var st api.CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.ll.Len()
		s.mu.Unlock()
	}
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	st.PlanHits = c.planHits.Load()
	st.PlanMisses = c.planMisses.Load()
	st.CostSavedNs = c.costSaved.Load()
	st.Evictions = c.evictions.Load()
	return st
}
