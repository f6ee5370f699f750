package estimate

import (
	"sync"
	"sync/atomic"

	"xseed/internal/kernel"
	"xseed/internal/pathhash"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// eptState is the immutable product of one EPT construction.
type eptState struct {
	root  *EPTNode
	stats EPTStats
}

// Snapshot is an immutable estimation view: a kernel that will not mutate
// under it, a frozen label dictionary, a HET lookup view (inside opt), the
// per-label name hashes compiled plans finish pattern hashes with, and the
// expanded path tree — built lazily, at most once, on first use
// (singleflight: concurrent first estimates block on one construction
// instead of each paying for a redundant build).
//
// Everything reachable from a Snapshot is read-only after publication, so
// any number of goroutines may estimate against it with no locking while
// successors are published; the publishing layer (xseed.Synopsis) guarantees
// the kernel and dictionary handed here are never mutated afterwards
// (copy-on-write for subtree updates, Dict.Clone for the dictionary).
type Snapshot struct {
	k    *kernel.Kernel
	dict *xmldoc.Dict
	opt  Options // opt.HET is the frozen lookup view (nil without HET)

	// hashes[id] is pathhash.String of the label name — the precomputed
	// prefix of every branching-pattern hash anchored at that label.
	hashes []uint32

	ept     atomic.Pointer[eptState]
	buildMu sync.Mutex

	// buildHook, when set, runs inside the singleflight critical section
	// just before BuildEPT. Test-only: it is how the races that motivated
	// the singleflight are made deterministic.
	buildHook func()
}

// NewSnapshot wraps the inputs as an estimation snapshot. The caller
// promises k, dict, and opt.HET are immutable for the snapshot's lifetime.
func NewSnapshot(k *kernel.Kernel, dict *xmldoc.Dict, opt Options) *Snapshot {
	names := dict.Names()
	hashes := make([]uint32, len(names))
	for i, name := range names {
		hashes[i] = pathhash.String(name)
	}
	return &Snapshot{k: k, dict: dict, opt: opt, hashes: hashes}
}

// WithOptions returns a fresh snapshot (unbuilt EPT) sharing this one's
// kernel view, frozen dictionary, and label hashes, under new options.
// The publishing layer uses it for mutations that cannot have changed the
// kernel or dictionary — feedback and budget changes — so a feedback storm
// skips the dictionary clone and hash recomputation entirely.
func (sn *Snapshot) WithOptions(opt Options) *Snapshot {
	return &Snapshot{k: sn.k, dict: sn.dict, opt: opt, hashes: sn.hashes}
}

// Kernel returns the snapshot's kernel view.
func (sn *Snapshot) Kernel() *kernel.Kernel { return sn.k }

// Dict returns the snapshot's frozen dictionary (for compiling plans).
func (sn *Snapshot) Dict() *xmldoc.Dict { return sn.dict }

// Options returns the snapshot's estimation options.
func (sn *Snapshot) Options() Options { return sn.opt }

// EPT returns the snapshot's expanded path tree, building it on first use.
// The fast path is one atomic load; the cold path serializes construction so
// exactly one BuildEPT runs per snapshot no matter how many goroutines race
// the first estimate.
func (sn *Snapshot) EPT() (*EPTNode, EPTStats) {
	if st := sn.ept.Load(); st != nil {
		return st.root, st.stats
	}
	sn.buildMu.Lock()
	defer sn.buildMu.Unlock()
	if st := sn.ept.Load(); st != nil {
		return st.root, st.stats
	}
	if sn.buildHook != nil {
		sn.buildHook()
	}
	root, stats := buildEPT(sn.k, sn.dict, sn.opt)
	st := &eptState{root: root, stats: stats}
	sn.ept.Store(st)
	return st.root, st.stats
}

// Estimate compiles q against the snapshot's dictionary and runs it. Callers
// that repeat a query should keep the compiled Plan instead.
func (sn *Snapshot) Estimate(q *xpath.Path) float64 {
	return Compile(q, sn.dict).Run(sn)
}

// Stats returns the EPT size metrics (building the EPT if needed).
func (sn *Snapshot) Stats() EPTStats {
	_, stats := sn.EPT()
	return stats
}
