// Package api is the public wire contract of the xseedd estimation API:
// the request, response, and error types every versioned /v1 route
// marshals, shared verbatim by the server (xseed/internal/server) and the
// Go SDK (xseed/client). It has no dependencies beyond the standard
// library and the XPath parser's error type and query caps, so
// optimizer-embedded clients and additional transports can reuse it
// without pulling in the synopsis machinery — the xtp binary protocol
// (docs/PROTOCOL.md) carries exactly these types in binary frames.
//
// # Versioning
//
// Every route lives under /v1 (see Routes). The original unversioned paths
// from before the contract was public remain mounted as thin aliases that
// serve identical bodies plus a "Deprecation: true" header and a Link to
// their /v1 successor; new clients should never use them.
//
// # Batch estimates and partial success
//
// POST /v1/synopses/{name}/estimate is batch-first: one request carries N
// queries and the response carries exactly N EstimateItems in request
// order. A query that fails to parse does not fail the batch — the request
// still returns 200 and the failed query's item carries a typed Error
// (CodeParseError, with the byte offset in its ParseDetail) while every
// other item carries its estimate. Whole-request errors (unknown synopsis,
// undecodable body, canceled context) use the non-2xx ErrorResponse
// envelope instead.
package api

import (
	"math"
	"strings"
	"time"

	"xseed/internal/xpath"
)

// SynopsisConfig mirrors the synopsis construction knobs
// (xseed.Config/xseed.HETConfig) for the JSON API.
type SynopsisConfig struct {
	KernelOnly    bool    `json:"kernelOnly,omitempty"`
	FeedbackOnly  bool    `json:"feedbackOnly,omitempty"`
	MBP           int     `json:"mbp,omitempty"`
	BselThreshold float64 `json:"bselThreshold,omitempty"`
	BudgetBytes   int     `json:"budgetBytes,omitempty"`
	CardThreshold float64 `json:"cardThreshold,omitempty"`
	// ReuseEPT is accepted and ignored: every synopsis version builds its
	// expanded path tree once and reuses it. The field stays so that
	// requests from clients that still send it decode.
	ReuseEPT bool `json:"reuseEPT,omitempty"`
}

// CreateRequest builds a synopsis from exactly one source: inline XML, an
// XML file on the server's disk (confined to its -data-dir), a generated
// dataset, or a serialized synopsis file written by `xseed build` or a
// snapshot download.
type CreateRequest struct {
	Name string `json:"name"`

	XML          string  `json:"xml,omitempty"`
	XMLFile      string  `json:"xmlFile,omitempty"`
	Dataset      string  `json:"dataset,omitempty"`
	Factor       float64 `json:"factor,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	SynopsisFile string  `json:"synopsisFile,omitempty"`

	Config *SynopsisConfig `json:"config,omitempty"`
}

// EstimateRequest carries one query or a batch (Query, if set, is treated
// as the first batch entry).
type EstimateRequest struct {
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`

	// Deprecated: accepted and ignored. It selected a second, streaming
	// matcher, which is gone; every estimate runs the one compiled plan.
	// The field stays so that an older client's request still decodes
	// (the server rejects unknown fields).
	Streaming bool `json:"streaming,omitempty"`
}

// EstimateItem is the outcome of estimating one query of a batch: either
// an estimate (with its cache provenance) or a typed per-query error —
// never both. Query is the normalized (parsed and re-rendered) form when
// the query parsed, and EchoQuery of the raw input otherwise: the input
// itself, or only its first bytes when it is longer than a query may be.
type EstimateItem struct {
	Query    string  `json:"query"`
	Estimate float64 `json:"estimate"`
	Cached   bool    `json:"cached,omitempty"`
	Error    *Error  `json:"error,omitempty"`
}

// MaxQueryEcho bounds what EchoQuery keeps of a query over the byte cap.
const MaxQueryEcho = 64

// EchoQuery is the text an item that failed to parse echoes for its query.
// A query within xpath.MaxQueryBytes is echoed whole. A longer one is
// echoed by its first bytes, at most MaxQueryEcho of them and cut at a
// rune start, so that answering a megabyte-long query does not take
// another megabyte; the copy does not keep the request's text alive.
func EchoQuery(q string) string {
	if len(q) <= xpath.MaxQueryBytes {
		return q
	}
	return strings.Clone(runePrefix(q, MaxQueryEcho))
}

// CheckActual rejects a feedback's actual cardinality that is NaN, infinite
// or negative as a CodeBadRequest error, and returns nil for any other
// count. Such a value would become a card the synopsis serves, and one its
// log cannot hold (JSON has no NaN or infinity), so the served synopsis and
// what a restart or a standby rebuilds would part. Every backend, embedded
// and served, checks an actual here before it parses the query.
func CheckActual(actual float64) *Error {
	if math.IsNaN(actual) || math.IsInf(actual, 0) || actual < 0 {
		return Errorf(CodeBadRequest, "actual cardinality %v is not a finite count >= 0", actual)
	}
	return nil
}

// EstimateResponse answers an estimate request; Results holds one item per
// query in request order (partial success: see the package comment).
type EstimateResponse struct {
	Results []EstimateItem `json:"results"`
}

// FeedbackRequest records an executed query's actual cardinality
// (self-tuning feedback, paper Figure 1).
type FeedbackRequest struct {
	Query  string  `json:"query"`
	Actual float64 `json:"actual"`
}

// FeedbackItem is one observed (query, actual cardinality) pair of a
// feedback batch.
type FeedbackItem struct {
	Query  string  `json:"query"`
	Actual float64 `json:"actual"`
}

// FeedbackBatchRequest records a batch of executed queries' actual
// cardinalities in one call. The server coalesces the batch into one
// snapshot publication and one group-committed log flush, so it is the
// efficient way to report feedback in bulk.
type FeedbackBatchRequest struct {
	Items []FeedbackItem `json:"items"`
}

// FeedbackBatchItem is one item's outcome: a typed error, or success when
// Error is nil (the observation is absorbed and durable to the store's
// configured discipline).
type FeedbackBatchItem struct {
	Error *Error `json:"error,omitempty"`
}

// FeedbackBatchResponse answers a feedback batch; Results holds one item
// per request entry in request order (partial success, mirroring estimate
// batches).
type FeedbackBatchResponse struct {
	Results []FeedbackBatchItem `json:"results"`
}

// SubtreeRequest applies an incremental document update to the kernel.
type SubtreeRequest struct {
	Op      string   `json:"op"` // "add" or "remove"
	Context []string `json:"context"`
	XML     string   `json:"xml"`
}

// BudgetRequest changes a memory budget at runtime (0 = unlimited).
// Without Tenant it re-targets the fleet-wide budget shared by tenants
// that have no budget of their own; with Tenant it re-targets that
// tenant's private budget. Admin-only (the default tenant's token).
type BudgetRequest struct {
	Bytes  int    `json:"bytes"`
	Tenant string `json:"tenant,omitempty"`
}

// AccuracyStats is the running accuracy a synopsis observed via feedback.
// The q-error quantiles come from the same online histogram the /metrics
// xseed_qerror family exposes (q-error = max(est/actual, actual/est), the
// factor by which the estimate was off); they are bucket upper bounds, and
// zero until the synopsis has received feedback on a metrics-enabled server.
type AccuracyStats struct {
	N          int64   `json:"n"`
	RMSE       float64 `json:"rmse"`
	NRMSE      float64 `json:"nrmse"`
	R2         float64 `json:"r2"`
	MeanActual float64 `json:"meanActual"`
	QErrorP50  float64 `json:"qerrorP50,omitempty"`
	QErrorP90  float64 `json:"qerrorP90,omitempty"`
	QErrorP99  float64 `json:"qerrorP99,omitempty"`
}

// SynopsisInfo is the served view of one registered synopsis.
type SynopsisInfo struct {
	Name           string        `json:"name"`
	Source         string        `json:"source"`
	Created        time.Time     `json:"created"`
	KernelBytes    int           `json:"kernelBytes"`
	HETBytes       int           `json:"hetBytes"`
	TotalBytes     int           `json:"totalBytes"`
	HETResident    int           `json:"hetResident"`
	HETTotal       int           `json:"hetTotal"`
	Estimates      int64         `json:"estimates"`
	Feedbacks      int64         `json:"feedbacks"`
	SubtreeUpdates int64         `json:"subtreeUpdates"`
	Accuracy       AccuracyStats `json:"accuracy"`
}

// CacheStats is a point-in-time view of estimate-cache effectiveness. The
// cache holds one entry per query: its compiled plan and its estimate at
// one snapshot version. A batch looks each distinct query up once.
// Hits/Misses/HitRate count lookups that did or did not find the estimate at
// the pinned snapshot version; PlanHits/PlanMisses count lookups that did or
// did not find a plan current for that snapshot (plans survive the feedback
// that retires every estimate), so every estimate hit is a plan hit too.
// CostSavedNs accumulates the recorded cost each hit skipped (parse +
// compile + run for an estimate, parse + compile for a plan): an estimate
// of the CPU time the cache has saved, and the observable the cost-aware
// eviction policy optimizes. A batch's repeat of a query whose lookup found
// the estimate counts as one more such hit in all three; a repeat of any
// other query counts in none.
type CacheStats struct {
	Entries     int     `json:"entries"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hitRate"`
	PlanHits    int64   `json:"planHits"`
	PlanMisses  int64   `json:"planMisses"`
	CostSavedNs int64   `json:"costSavedNs"`
	Evictions   int64   `json:"evictions"`
}

// RebalanceStats is the /v1/stats view of budget-rebalance progress: Gen is
// the newest plan, AppliedGen the newest applied one; Pending > 0 means
// targets are still in flight to some entries.
type RebalanceStats struct {
	Async      bool   `json:"async"`
	Gen        uint64 `json:"gen"`
	AppliedGen uint64 `json:"appliedGen"`
	Pending    uint64 `json:"pending"`
}

// StoreSynopsisStats is the persistence state of one synopsis. Tenant is
// empty on servers running without -tenants (single-tenant layout).
type StoreSynopsisStats struct {
	Name         string `json:"name"`
	Tenant       string `json:"tenant,omitempty"`
	Seq          uint64 `json:"seq"`
	BaseBytes    int64  `json:"baseBytes"`
	DeltaBytes   int64  `json:"deltaBytes"`
	DeltaRecords int64  `json:"deltaRecords"`
	Compactions  int64  `json:"compactions"`
}

// StoreStats is the durable store's stats payload (absent when the daemon
// runs without -store-dir).
type StoreStats struct {
	Dir      string               `json:"dir"`
	Synopses []StoreSynopsisStats `json:"synopses"`
}

// TenantStats is one tenant's rollup inside /v1/stats, emitted only on
// servers running with -tenants. CacheHitRate covers this tenant's
// estimate-cache lookups; QErrorP50/90/99 aggregate feedback-observed
// q-error across the tenant's synopses (bucket upper bounds, zero until
// the tenant has received feedback on a metrics-enabled server).
type TenantStats struct {
	ID           string  `json:"id"`
	Synopses     int     `json:"synopses"`
	TotalBytes   int     `json:"totalBytes"`
	BudgetBytes  int     `json:"budgetBytes,omitempty"` // 0 = shares the fleet budget
	CacheQuota   int     `json:"cacheQuota,omitempty"`  // max estimate-cache entries (0 = uncapped)
	CacheHits    int64   `json:"cacheHits"`
	CacheMisses  int64   `json:"cacheMisses"`
	CacheHitRate float64 `json:"cacheHitRate"`
	RateLimited  int64   `json:"rateLimited"`
	QErrorP50    float64 `json:"qerrorP50,omitempty"`
	QErrorP90    float64 `json:"qerrorP90,omitempty"`
	QErrorP99    float64 `json:"qerrorP99,omitempty"`
}

// Stats is the server-wide stats payload. On a tenanted server every
// field is scoped to the requesting tenant except Tenants, which the
// admin (default) tenant sees for the whole fleet.
type Stats struct {
	Synopses        []SynopsisInfo `json:"synopses"`
	TotalBytes      int            `json:"totalBytes"`
	AggregateBudget int            `json:"aggregateBudget"`
	Rebalance       RebalanceStats `json:"rebalance"`
	Cache           CacheStats     `json:"cache"`
	Store           *StoreStats    `json:"store,omitempty"`   // nil when not persisting
	Tenants         []TenantStats  `json:"tenants,omitempty"` // only with -tenants
}

// RingNode is one xseedd instance in the cluster partition ring.
type RingNode struct {
	ID   string `json:"id"`             // stable node name from the cluster config
	HTTP string `json:"http"`           // HTTP base address ("host:port")
	XTP  string `json:"xtp,omitempty"`  // xtp listen address (empty = HTTP only)
	Repl string `json:"repl,omitempty"` // replication listen address
	// State is "active" (owns partitions) or "joining" (receiving catch-up
	// replication; flipped to active by the router once it has caught up).
	State string `json:"state"`
}

// Ring node states.
const (
	RingStateActive  = "active"
	RingStateJoining = "joining"
)

// Ring is the cluster partition ring served by GET /v1/cluster/ring: the
// consistent-hash membership clients and nodes route (tenant, name) keys
// by. Epoch increases on every membership or ownership change; a response
// with a higher epoch supersedes every lower one.
type Ring struct {
	Epoch    uint64     `json:"epoch"`
	Replicas int        `json:"replicas"` // standby copies per synopsis
	Nodes    []RingNode `json:"nodes"`
}

// ReplTargetLag is the replication lag one node observes toward one
// standby target: bytes of delta log written locally but not yet acked by
// the target, and the age of the oldest unacked byte.
type ReplTargetLag struct {
	Target  string  `json:"target"`
	Bytes   int64   `json:"bytes"`
	Seconds float64 `json:"seconds"`
}

// ClusterLag is the response of GET /v1/cluster/lag: per-target replication
// lag as seen by the serving node. The router polls it to decide when a
// joining node has caught up enough for the ownership flip.
type ClusterLag struct {
	Node    string          `json:"node"`
	Targets []ReplTargetLag `json:"targets"`
}

// CompactResponse reports a manual compaction sweep.
type CompactResponse struct {
	Compacted []string   `json:"compacted"`
	Store     StoreStats `json:"store"`
}
