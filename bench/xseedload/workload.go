package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"xseed"
)

// workload is one traffic mix. The README's workload table gives the reason
// for each; the comments here only say what the fields control.
type workload struct {
	name    string
	dataset string
	factor  float64
	card    float64 // the synopsis's CardThreshold
	bp, cp  int     // random branching / complex queries added to the pool
	http    bool    // estimates over HTTP JSON instead of xtp
	zipf    bool    // Zipf(zipfS) picks over a seeded ranking, else uniform
	batch   int     // queries per estimate call
	callers int     // closed-loop estimate callers, one connection each
	mixed   bool    // open-loop feedback runs beside the estimates
}

var workloads = []workload{
	{name: "hot-xtp", dataset: "xmark", factor: 0.01, bp: 200, cp: 200, batch: 1, callers: 2},
	{name: "hot-http", dataset: "xmark", factor: 0.01, bp: 200, cp: 200, http: true, batch: 1, callers: 2},
	{name: "skewed-miss", dataset: "treebank", factor: 0.01, card: 20, bp: 1000, cp: 1000, zipf: true, batch: 64, callers: 2},
	{name: "read-write", dataset: "treebank", factor: 0.01, card: 20, bp: 1000, cp: 1000, zipf: true, batch: 16, callers: 1, mixed: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	synName  = "bench"
	tenantID = "bench"
	token    = "xseedload-bench-token"

	// The document, the query pool and its popularity ranking are fixed, so
	// q-error and the cache working set are properties of the workload;
	// -seed drives the traffic drawn from them (which queries are asked in
	// what order, and which feedback is sent with which cardinality).
	datasetSeed = 1
	poolSeed    = 1

	zipfS    = 1.1
	fbBatch  = 16
	fbPerSec = 250 // feedback batches per second when feedback runs alone: 4,000 events/s
	// Beside estimates, one feedback batch per fbEveryCalls estimate calls:
	// on read-write (batches of 16) one event per 24 estimates, which is
	// ~4,000 events/s at the measuring host's ~95k estimates/s.
	fbEveryCalls = 24
	sweepSize    = 64 // queries per call when estimating the whole pool
)

// inputs is everything a run derives from its workload and seed before the
// daemon starts: the document, the query pool with exact actuals, and the
// reference estimates an in-process synopsis gives for the pool.
type inputs struct {
	doc    *xseed.Document
	cfg    *xseed.Config
	pool   []string       // distinct normalized queries
	parsed []*xseed.Query // pool, parsed
	actual []float64      // exact cardinality of each pool query
	ref    []float64      // reference estimate of each pool query, before feedback
	fbIdx  []int          // pool indices of simple paths: the feedback candidates
	fbCard []float64      // cardinality feedback reports, per pool index
}

// newInputs builds a workload's inputs. smoke shrinks the pool for the smoke
// test.
func newInputs(w workload, seed int64, smoke bool) (*inputs, error) {
	doc, err := xseed.Generate(w.dataset, w.factor, datasetSeed)
	if err != nil {
		return nil, err
	}
	// The daemon turns api.SynopsisConfig{CardThreshold: c} into exactly
	// this config, so the reference synopsis equals the served one.
	cfg := &xseed.Config{CardThreshold: w.card, HET: &xseed.HETConfig{MBP: 1}}
	syn, err := xseed.BuildSynopsis(doc, cfg)
	if err != nil {
		return nil, err
	}
	maxSP, bp, cp := 0, w.bp, w.cp
	if smoke {
		maxSP, bp, cp = 300, 20, 20
	}
	qs := doc.SimplePathQueries(maxSP)
	for i, class := range []string{"BP", "CP"} {
		n := []int{bp, cp}[i]
		more, err := doc.RandomWorkloadOpts(class, xseed.WorkloadOptions{N: n, MaxPredsPerStep: 2, Seed: poolSeed + int64(i)})
		if err != nil {
			return nil, err
		}
		qs = append(qs, more...)
	}
	in := &inputs{doc: doc, cfg: cfg}
	seen := make(map[string]bool, len(qs))
	for _, q := range qs {
		s := q.String()
		if seen[s] {
			continue
		}
		seen[s] = true
		act, _ := q.Actual()
		i := len(in.pool)
		in.pool = append(in.pool, s)
		in.parsed = append(in.parsed, q)
		in.actual = append(in.actual, float64(act))
		in.ref = append(in.ref, syn.EstimateQuery(q))
		in.fbCard = append(in.fbCard, driftedCard(seed, s, float64(act)))
		if q.Class() == "SP" {
			in.fbIdx = append(in.fbIdx, i)
		}
	}
	return in, nil
}

// driftedCard is the cardinality feedback reports for a simple path: the
// exact one scaled by a factor in [0.5, 1.5] fixed per (seed, query), as if
// the document had drifted since the synopsis was built. Each query always
// reports the same value, and simple-path entries are keyed by the path
// alone, so the synopsis after feedback depends only on the set of events
// applied, not their order or batching. Exact branching feedback would not
// have that property: distinct queries share a hyper-edge pattern key and
// the last writer wins.
func driftedCard(seed int64, query string, exact float64) float64 {
	f := 0.5 + float64(subSeed(seed, "drift/"+query)%1001)/1000
	return math.Max(1, math.Round(exact*f))
}

// subSeed derives an independent, reproducible seed for one named stream.
func subSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	return int64(h.Sum64() & math.MaxInt64)
}

// picker draws pool indices for one stream: uniformly, or Zipf-distributed
// over a ranking shared by every stream of the run.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	rank []int // popularity rank → pool index; nil for uniform picks
	n    int
}

func newPicker(seed int64, tag string, n int, rank []int) *picker {
	p := &picker{rng: rand.New(rand.NewSource(subSeed(seed, tag))), rank: rank, n: n}
	if rank != nil {
		p.zipf = rand.NewZipf(p.rng, zipfS, 1, uint64(n-1))
	}
	return p
}

// ranking is the popularity order Zipf picks follow. Like the pool it is
// fixed, so which queries are hot is part of the workload; a run's seed
// only varies the draws from it.
func ranking(n int) []int {
	return rand.New(rand.NewSource(subSeed(poolSeed, "rank"))).Perm(n)
}

func (p *picker) next() int {
	if p.zipf != nil {
		return p.rank[p.zipf.Uint64()]
	}
	return p.rng.Intn(p.n)
}

// fill overwrites idx with the next len(idx) picks.
func (p *picker) fill(idx []int) {
	for i := range idx {
		idx[i] = p.next()
	}
}

// streams returns the run's estimate pickers, one per caller.
func streams(w workload, seed int64, n int) []*picker {
	var rank []int
	if w.zipf {
		rank = ranking(n)
	}
	ps := make([]*picker, w.callers)
	for c := range ps {
		ps[c] = newPicker(seed, fmt.Sprintf("est/%d", c), n, rank)
	}
	return ps
}

// fbPicker draws feedback events uniformly from the simple paths.
func fbPicker(seed int64, in *inputs) *picker {
	return newPicker(seed, "feedback", len(in.fbIdx), nil)
}

// fbItems turns picks over in.fbIdx into feedback observations.
func (in *inputs) fbItems(picks []int) []xseed.FeedbackObs {
	items := make([]xseed.FeedbackObs, len(picks))
	for i, k := range picks {
		j := in.fbIdx[k]
		items[i] = xseed.FeedbackObs{Query: in.pool[j], Actual: in.fbCard[j]}
	}
	return items
}

// expected returns the pool's estimates from a fresh reference synopsis that
// has absorbed feedback for every pool index set in fed.
func (in *inputs) expected(fed []bool) ([]float64, error) {
	syn, err := xseed.BuildSynopsis(in.doc, in.cfg)
	if err != nil {
		return nil, err
	}
	for j, ok := range fed {
		if ok {
			syn.FeedbackQueryDeltaDeferred(in.parsed[j], in.fbCard[j])
		}
	}
	syn.Publish()
	out := make([]float64, len(in.pool))
	for j, q := range in.parsed {
		out[j] = syn.EstimateQuery(q)
	}
	return out, nil
}

// qerror is the factor by which est misses act, both clamped to at least 1
// so empty and sub-unit estimates stay finite.
func qerror(est, act float64) float64 {
	e, a := math.Max(est, 1), math.Max(act, 1)
	return math.Max(e/a, a/e)
}
