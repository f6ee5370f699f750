package server

import (
	"xseed/internal/obs"
)

// Metric families served on /metrics. The estimate path's families are
// per-synopsis (labeled children resolved once at entry creation, so the
// hot path indexes arrays, never label maps); the cache and rebalancer
// families are scrape-time reads of the same atomics /v1/stats serves, so
// the JSON view and the exposition cannot disagree.
const (
	// qerrScale is the fixed-point factor for recorded q-errors: a q-error
	// q is stored as int64(q*qerrScale), and the histogram's Scale divides
	// it back out on exposition, giving factor-1.25 bucket resolution
	// (SubBits 2) on a dimensionless ratio.
	qerrScale = 64
	// qerrClamp caps a recorded q-error at ~2^34 (after scaling): estimates
	// against an actual of zero are "infinitely" wrong, and infinity must
	// land in the top bucket, not overflow int64 conversion.
	qerrClamp = float64(1) * (1 << 34)
)

// regMetrics is the registry's handle on its metric families.
type regMetrics struct {
	om       *obs.Registry
	stageVec *obs.HistogramVec // estimate-stage latency {stage, synopsis}
	qerrVec  *obs.HistogramVec // accuracy {synopsis}

	// Publish-coalescing counters: fbApplied counts feedback events that
	// mutated an HET; fbPublishes counts the successor snapshots those
	// mutations published — a drain round whose events changed no value an
	// estimate reads keeps the current snapshot and counts none.
	// applied/publishes is the coalescing factor the batched write path
	// and those kept snapshots buy (1.0 = every event paid its own
	// publication).
	fbApplied   *obs.Counter // xseed_feedback_applied_total
	fbPublishes *obs.Counter // xseed_feedback_publishes_total
}

func newRegMetrics(om *obs.Registry) *regMetrics {
	return &regMetrics{
		om: om,
		stageVec: om.HistogramVec("xseed_estimate_stage_seconds",
			"Estimate-path time per stage per synopsis. cache_probe/parse/compile are sampled (1 in 64 queries); plan_run is exact (it reuses the cost measurement the cache already makes).",
			obs.HistogramOpts{Scale: 1e9}, "stage", "synopsis"),
		qerrVec: om.HistogramVec("xseed_qerror",
			"Per-synopsis q-error (max(est/actual, actual/est)) observed via feedback.",
			obs.HistogramOpts{Scale: qerrScale, SubBits: 2, MaxExp: 40}, "synopsis"),
		fbApplied: om.Counter("xseed_feedback_applied_total",
			"Feedback events that mutated a hyper-edge table."),
		fbPublishes: om.Counter("xseed_feedback_publishes_total",
			"Snapshot publications those mutations coalesced into (applied/publishes = coalescing factor)."),
	}
}

// wire registers the scrape-time families that read state the registry and
// cache already maintain. Called once from NewRegistryObs; every fn is safe
// from any goroutine and takes no registry-ordering locks.
func (m *regMetrics) wire(r *Registry) {
	c := r.cache
	m.om.CounterFunc("xseed_cache_hits_total",
		"Estimates served from the cache at the pinned snapshot version (a batch's repeat of a cached query counts too).", func() uint64 { return uint64(c.hits.Load()) })
	m.om.CounterFunc("xseed_cache_misses_total",
		"Distinct queries of a batch whose estimate the cache could not serve at the pinned snapshot version.", func() uint64 { return uint64(c.misses.Load()) })
	m.om.CounterFunc("xseed_cache_evictions_total",
		"Cache entries evicted.", func() uint64 { return uint64(c.evictions.Load()) })
	m.om.CounterFunc("xseed_cache_cost_saved_ns_total",
		"Recorded compute cost of every served cache hit, in nanoseconds.", func() uint64 { return uint64(c.costSaved.Load()) })
	m.om.CounterFunc("xseed_plan_cache_hits_total",
		"Estimates that found a cached plan current for the pinned snapshot: every estimate hit, and every rerun of a kept plan.", func() uint64 { return uint64(c.planHits.Load()) })
	m.om.CounterFunc("xseed_plan_cache_misses_total",
		"Distinct queries of a batch for which the cache held no plan current for the pinned snapshot (absent, or compiled before the dictionary grew).", func() uint64 { return uint64(c.planMisses.Load()) })
	m.om.GaugeFunc("xseed_cache_entries",
		"Entries resident in the estimate cache, one per query (its plan and estimate).",
		func() float64 { return float64(c.Stats().Entries) })
	m.om.GaugeFunc("xseed_synopses",
		"Registered synopses.", func() float64 {
			r.mu.RLock()
			n := len(r.entries)
			r.mu.RUnlock()
			return float64(n)
		})
	m.om.GaugeFunc("xseed_rebalance_generation",
		"Newest budget-rebalance plan generation.", func() float64 { return float64(r.rebalGen.Load()) })
	m.om.GaugeFunc("xseed_rebalance_applied_generation",
		"Newest fully applied budget-rebalance generation.", func() float64 { return float64(r.rebalApplied.Load()) })
	m.om.GaugeFunc("xseed_rebalance_pending",
		"Rebalance generations planned but not yet applied.", func() float64 {
			gen, applied := r.rebalGen.Load(), r.rebalApplied.Load()
			if gen > applied {
				return float64(gen - applied)
			}
			return 0
		})
}

// entry resolves one synopsis's hot-path metric handles. Children are keyed
// by name only: a Put replacement inherits its predecessor's series (the
// counters stay monotone, which is what Prometheus wants), and the series
// end only when the name is Deleted.
func (m *regMetrics) entry(name string) (*obs.StageSet, *obs.Histogram) {
	return obs.NewStageSet(m.stageVec, name), m.qerrVec.With(name)
}

// deleteEntry stops exporting a deleted synopsis's series.
func (m *regMetrics) deleteEntry(name string) {
	for _, st := range obs.Stages() {
		m.stageVec.Delete(st.String(), name)
	}
	m.qerrVec.Delete(name)
}

// qerrValue converts a feedback observation into the fixed-point q-error
// the accuracy histogram records: max(est/actual, actual/est), clamped into
// the top bucket when either side is zero or the ratio overflows. Both
// sides zero is a perfect prediction (q = 1).
func qerrValue(est, actual float64) int64 {
	var q float64
	switch {
	case est <= 0 && actual <= 0:
		q = 1
	case est <= 0 || actual <= 0:
		q = qerrClamp
	default:
		q = est / actual
		if q < 1 {
			q = 1 / q
		}
	}
	if q > qerrClamp {
		q = qerrClamp
	}
	return int64(q * qerrScale)
}
