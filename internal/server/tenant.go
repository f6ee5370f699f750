package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xseed/api"
	"xseed/internal/obs"
	"xseed/internal/store"
)

// Tenancy model. A TenantSet resolves bearer tokens to tenants and owns the
// per-tenant quota state; every registry Entry holds its tenant pointer, so
// the hot paths (estimate, feedback, cache fills) reach quota counters with
// one indirection and zero lookups. An untenanted server (no -tenants flag)
// runs on a disabled set whose single default tenant has no token, no
// quotas, and inert metric handles — the tenancy plumbing then costs the
// request path nothing observable, which is what keeps single-tenant
// behavior byte-identical.

// TenantConfig is one entry of the -tenants JSON file: an array of
//
//	{"id": "acme", "token": "s3cret", "budgetBytes": 0, "cacheQuota": 0,
//	 "ratePerSec": 0, "burst": 0}
//
// objects. Zero values mean "no private limit": the tenant shares the
// fleet-wide budget, uses the cache without a quota, and is not rate
// limited. An entry with id "default" configures the default tenant — the
// one tokenless requests resolve to, and the only one allowed to call the
// admin routes (budget, compact) on a tenanted server.
type TenantConfig struct {
	ID          string  `json:"id"`
	Token       string  `json:"token"`
	BudgetBytes int     `json:"budgetBytes,omitempty"`
	CacheQuota  int     `json:"cacheQuota,omitempty"`
	RatePerSec  float64 `json:"ratePerSec,omitempty"`
	Burst       float64 `json:"burst,omitempty"`
}

// LoadTenantsFile reads a -tenants JSON file.
func LoadTenantsFile(path string) ([]TenantConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfgs []TenantConfig
	if err := json.Unmarshal(b, &cfgs); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	return cfgs, nil
}

// validTenantID accepts 1..40 bytes: an alphanumeric first byte, then
// alphanumerics plus "._-". That keeps IDs usable verbatim as store
// directory names and metric label values, and excludes the NUL the
// (tenant, name) key scheme reserves as its separator.
func validTenantID(id string) bool {
	if len(id) == 0 || len(id) > 40 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// tenStripe spaces per-shard counter slots a cache line apart so two shards
// bumping one tenant's counters never ping-pong a line.
const tenStripe = 8

// stripedCount is a per-cache-shard counter: each shard writes only its own
// slot (while already holding that shard's mutex), so the estimate path adds
// tenant accounting without any cross-shard contention; readers sum.
type stripedCount [numShards * tenStripe]atomic.Int64

func (s *stripedCount) add(shard int) { s[shard*tenStripe].Add(1) }

func (s *stripedCount) load() int64 {
	var n int64
	for i := 0; i < numShards; i++ {
		n += s[i*tenStripe].Load()
	}
	return n
}

// Tenant is one isolated namespace: its synopses, budget, cache quota, and
// rate limit. The zero-quota default tenant of an untenanted server is also
// a Tenant, so no path needs a nil check to mean "tenancy off".
type Tenant struct {
	id    string
	token string // empty: unreachable via Authorization (default, or orphaned store tenant)

	// budget is the tenant's private synopsis-memory budget in bytes; 0
	// means it shares the fleet-wide budget. The rebalance planner groups
	// entries by budget domain, so changing this re-partitions only this
	// tenant's synopses.
	budget atomic.Int64

	// cacheQuota caps how many estimate-cache entries (estimates and
	// compiled plans) this tenant may occupy fleet-wide; 0 = uncapped. The
	// quota is split across shards the way capacity is, and an over-quota
	// fill evicts the tenant's own LRU entry — never a neighbor's.
	cacheQuota int

	// Token bucket for the estimate/feedback paths; rate <= 0 = unlimited
	// (the fast path is one predictable branch).
	rlRate  float64
	rlBurst float64
	rlMu    sync.Mutex
	rlTok   float64
	rlLast  time.Time

	rateLimited atomic.Int64

	hits, misses stripedCount // estimate-cache lookups (shard-striped)

	reqs *obs.Counter   // xseed_tenant_requests_total{tenant}
	qerr *obs.Histogram // xseed_tenant_qerror{tenant}
}

// ID returns the tenant's identifier.
func (t *Tenant) ID() string { return t.id }

// allowN takes n tokens atomically, reporting false (and counting the
// rejection) when the bucket cannot cover them: all or nothing, so a batch
// of n events costs exactly n single events and cannot slip under the
// limit. A batch larger than the burst capacity can never be admitted —
// callers split or are rejected, by design.
func (t *Tenant) allowN(n int) bool {
	if t == nil || t.rlRate <= 0 || n <= 0 {
		return true
	}
	now := time.Now()
	t.rlMu.Lock()
	t.rlTok += now.Sub(t.rlLast).Seconds() * t.rlRate
	t.rlLast = now
	if t.rlTok > t.rlBurst {
		t.rlTok = t.rlBurst
	}
	if t.rlTok < float64(n) {
		t.rlMu.Unlock()
		t.rateLimited.Add(1)
		return false
	}
	t.rlTok -= float64(n)
	t.rlMu.Unlock()
	return true
}

// quotaForShard splits the tenant's cache quota across shards the way
// NewCache splits capacity, so the fleet-wide bound is exact.
func (t *Tenant) quotaForShard(shard int) int {
	base, rem := t.cacheQuota/numShards, t.cacheQuota%numShards
	if shard < rem {
		return base + 1
	}
	return base
}

// TenantSet resolves tokens and IDs to tenants. Immutable after
// construction except for getOrCreate, which only ever adds tokenless
// tenants discovered in a migrated store.
type TenantSet struct {
	enabled bool
	def     *Tenant

	mu      sync.RWMutex
	byID    map[string]*Tenant
	byToken map[string]*Tenant

	om      *obs.Registry
	reqVec  *obs.CounterVec
	qerrVec *obs.HistogramVec
	hitsVec *obs.CounterFuncVec
	missVec *obs.CounterFuncVec
	rlVec   *obs.CounterFuncVec
}

// noTenants is the disabled set an untenanted server runs on: one default
// tenant, no tokens, inert metrics.
func noTenants() *TenantSet {
	ts := &TenantSet{
		byID:    make(map[string]*Tenant),
		byToken: make(map[string]*Tenant),
		om:      obs.Disabled,
	}
	ts.wireVecs()
	ts.def = ts.newTenant(TenantConfig{ID: store.DefaultTenant})
	return ts
}

// NewTenantSet builds an enabled set from the -tenants config. The default
// tenant always exists; a config entry with id "default" gives it a token
// and limits. Duplicate IDs or tokens and invalid IDs are rejected.
func NewTenantSet(om *obs.Registry, cfgs []TenantConfig) (*TenantSet, error) {
	if om == nil {
		om = obs.Disabled
	}
	ts := &TenantSet{
		enabled: true,
		byID:    make(map[string]*Tenant),
		byToken: make(map[string]*Tenant),
		om:      om,
	}
	ts.wireVecs()
	for _, cfg := range cfgs {
		if !validTenantID(cfg.ID) {
			return nil, fmt.Errorf("tenant id %q invalid (1-40 chars of [A-Za-z0-9._-], leading alphanumeric)", cfg.ID)
		}
		if _, dup := ts.byID[cfg.ID]; dup {
			return nil, fmt.Errorf("tenant id %q configured twice", cfg.ID)
		}
		if cfg.Token != "" {
			if _, dup := ts.byToken[cfg.Token]; dup {
				return nil, fmt.Errorf("tenant %q: token already assigned to another tenant", cfg.ID)
			}
		}
		ts.newTenant(cfg)
	}
	if ts.byID[store.DefaultTenant] == nil {
		ts.newTenant(TenantConfig{ID: store.DefaultTenant})
	}
	ts.def = ts.byID[store.DefaultTenant]
	return ts, nil
}

func (ts *TenantSet) wireVecs() {
	ts.reqVec = ts.om.CounterVec("xseed_tenant_requests_total",
		"API requests by tenant (HTTP and xtp).", "tenant")
	ts.qerrVec = ts.om.HistogramVec("xseed_tenant_qerror",
		"Per-tenant q-error (max(est/actual, actual/est)) observed via feedback.",
		obs.HistogramOpts{Scale: qerrScale, SubBits: 2, MaxExp: 40}, "tenant")
	ts.hitsVec = ts.om.CounterFuncVec("xseed_tenant_cache_hits_total",
		"Estimate-result cache hits by tenant. Reads the same striped counters /v1/stats serves.", "tenant")
	ts.missVec = ts.om.CounterFuncVec("xseed_tenant_cache_misses_total",
		"Estimate-result cache misses by tenant. Reads the same striped counters /v1/stats serves.", "tenant")
	ts.rlVec = ts.om.CounterFuncVec("xseed_tenant_rate_limited_total",
		"Requests rejected by the tenant's token-bucket rate limit.", "tenant")
}

// newTenant builds a tenant, indexes it, and resolves its metric children
// once (the hot paths then never touch label maps). Caller must hold ts.mu
// or have exclusive access (construction).
func (ts *TenantSet) newTenant(cfg TenantConfig) *Tenant {
	t := &Tenant{
		id:         cfg.ID,
		token:      cfg.Token,
		cacheQuota: cfg.CacheQuota,
		rlRate:     cfg.RatePerSec,
		rlBurst:    cfg.Burst,
		rlLast:     time.Now(),
	}
	if t.rlRate > 0 && t.rlBurst < 1 {
		t.rlBurst = t.rlRate // default burst: one second's worth
	}
	t.rlTok = t.rlBurst
	t.budget.Store(int64(cfg.BudgetBytes))
	t.reqs = ts.reqVec.With(t.id)
	t.qerr = ts.qerrVec.With(t.id)
	ts.hitsVec.With(t.hits.load0, t.id)
	ts.missVec.With(t.misses.load0, t.id)
	ts.rlVec.With(func() uint64 { return uint64(t.rateLimited.Load()) }, t.id)
	ts.byID[t.id] = t
	if t.token != "" {
		ts.byToken[t.token] = t
	}
	return t
}

// load0 adapts a stripedCount to the CounterFuncVec signature.
func (s *stripedCount) load0() uint64 { return uint64(s.load()) }

// Enabled reports whether token resolution is on (-tenants given).
func (ts *TenantSet) Enabled() bool { return ts.enabled }

// Default returns the default tenant.
func (ts *TenantSet) Default() *Tenant { return ts.def }

// lookup returns the tenant with the given ID, or nil.
func (ts *TenantSet) lookup(id string) *Tenant {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.byID[id]
}

// getOrCreate returns the tenant for id, creating a tokenless one when a
// store directory references a tenant the config no longer lists: its data
// stays registered (and persists) but is unreachable over the API until an
// operator re-adds a token for it.
func (ts *TenantSet) getOrCreate(id string) *Tenant {
	if id == "" || id == store.DefaultTenant {
		return ts.def
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t, ok := ts.byID[id]; ok {
		return t
	}
	return ts.newTenant(TenantConfig{ID: id})
}

// forKey resolves the tenant owning a qualified (tenant NUL name) key.
func (ts *TenantSet) forKey(key string) *Tenant {
	ten, _ := store.SplitKey(key)
	return ts.getOrCreate(ten)
}

// resolveToken maps a bearer token to its tenant.
func (ts *TenantSet) resolveToken(token string) (*Tenant, *api.Error) {
	ts.mu.RLock()
	t := ts.byToken[token]
	ts.mu.RUnlock()
	if t == nil {
		return nil, api.Errorf(api.CodeUnauthorized, "unknown bearer token")
	}
	return t, nil
}

// resolveXTP maps an xtp AuthReq token to its tenant, mirroring resolveHTTP:
// with tenancy disabled any token resolves to the default tenant; enabled, an
// empty token is the default (the tokenless-client rule) and an unknown one
// is unauthorized — terminal for the connection (docs/PROTOCOL.md §4.9).
func (ts *TenantSet) resolveXTP(token string) (*Tenant, *api.Error) {
	if !ts.enabled || token == "" {
		return ts.def, nil
	}
	return ts.resolveToken(token)
}

// resolveHTTP maps a request to its tenant. With tenancy disabled every
// request — headers or not — is the default tenant, preserving untenanted
// behavior exactly. Enabled, a missing Authorization header still resolves
// to the default tenant (today's tokenless clients keep working); a header
// that is present but malformed or unknown is unauthorized.
func (ts *TenantSet) resolveHTTP(req *http.Request) (*Tenant, *api.Error) {
	if !ts.enabled {
		return ts.def, nil
	}
	h := req.Header.Get("Authorization")
	if h == "" {
		return ts.def, nil
	}
	tok, ok := strings.CutPrefix(h, "Bearer ")
	if !ok {
		return nil, api.Errorf(api.CodeUnauthorized, "malformed Authorization header (want: Bearer <token>)")
	}
	return ts.resolveToken(strings.TrimSpace(tok))
}

// all returns every known tenant, sorted by ID.
func (ts *TenantSet) all() []*Tenant {
	ts.mu.RLock()
	out := make([]*Tenant, 0, len(ts.byID))
	for _, t := range ts.byID {
		out = append(out, t)
	}
	ts.mu.RUnlock()
	for i := 1; i < len(out); i++ { // insertion sort: tenant counts are small
		for j := i; j > 0 && out[j].id < out[j-1].id; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// seriesFor maps a registry key onto the label value its per-synopsis
// metric series use: the bare name for the default tenant (byte-compatible
// with pre-tenancy exposition), "tenant/name" otherwise.
func seriesFor(key string) string {
	ten, bare := store.SplitKey(key)
	if ten == store.DefaultTenant {
		return bare
	}
	return ten + "/" + bare
}
