package xseed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"xseed/internal/estimate"
	"xseed/internal/het"
	"xseed/internal/kernel"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// Config controls synopsis construction. The zero value (or a nil *Config)
// builds a kernel with a 1BP hyper-edge table under the paper's default
// settings.
type Config struct {
	// HET enables the hyper-edge table layer. Nil means Default1BP.
	HET *HETConfig

	// CardThreshold prunes estimator traversal of expanded-path-tree nodes
	// whose estimated cardinality is at or below it. The paper uses 0 for
	// ordinary documents and 20 for the highly recursive Treebank. Snapshots
	// store it rounded to millionths; BuildSynopsis rejects NaN, infinities
	// and magnitudes of 2^51 millionths (about 2.25e9) or more.
	CardThreshold float64

	// MaxEPTNodes caps the expanded path tree (safety bound; 0 = 1<<20).
	MaxEPTNodes int
}

// HETConfig controls hyper-edge table pre-computation and budget.
type HETConfig struct {
	// Disable skips HET construction entirely (bare kernel).
	Disable bool

	// FeedbackOnly starts from an empty table populated exclusively by
	// Feedback calls (no pre-computation pass over the document).
	FeedbackOnly bool

	// MBP is the maximum branching predicates per pattern (1 is the
	// paper's recommended tradeoff; 2-3 cost combinatorially more).
	MBP int

	// BselThreshold limits branching-candidate enumeration (paper: 0.1
	// default, 0.001 for Treebank). 0 means 0.1.
	BselThreshold float64

	// BudgetBytes bounds the resident HET size (<= 0: unlimited).
	BudgetBytes int

	// MaxCandidatesPerNode caps pattern enumeration per path tree node
	// (0 = unlimited).
	MaxCandidatesPerNode int
}

// Default1BP is the paper's recommended HET setting.
func Default1BP() *HETConfig { return &HETConfig{MBP: 1} }

// Synopsis is an XSEED synopsis: kernel plus optional hyper-edge table.
//
// Estimates run one matcher: every estimate compiles its query to a Plan,
// which evaluates the paper's Algorithm 3 over the expanded path tree that
// Algorithm 2 unfolds from the kernel.
//
// Concurrency: the read path is lock-free. Estimate, EstimateQuery,
// Snapshot, and plan runs are safe to call concurrently with each other
// AND with any single mutator — every estimate runs against
// an immutable estimation snapshot (kernel view + expanded path tree +
// hyper-edge lookup view) published through an atomic pointer, so a reader
// never blocks on a writer and never observes a half-applied mutation.
// Mutating calls — Feedback, ApplyHETDelta, AddSubtree, RemoveSubtree,
// SetBudget — build and publish a successor snapshot before returning, or
// keep the current one when they changed nothing an estimate reads (a
// feedback confirming a card the table already holds, a budget change that
// keeps the resident entry count); they are not safe to run concurrently
// with EACH OTHER and must be serialized externally (e.g. a plain Mutex, or
// the per-entry write lock xseed/internal/server holds), but estimates in
// flight during a mutation simply keep reading the snapshot they pinned.
//
// Consistency: an estimate reflects some published snapshot — the one
// current when the caller pinned it. After Feedback returns, the next
// Snapshot (or estimate) call observes the absorbed feedback; concurrent
// readers that pinned earlier may still answer from the predecessor. That
// is the whole "eventually consistent estimate after feedback" contract:
// values are never torn or interpolated, they are exactly the estimate some
// version produced. The size accessors (SizeBytes, HETEntries, ...) read
// the live table and kernel and therefore still need the external
// serialization against mutators that WriteTo always needed.
//
// Timing: a budget handed to SetBudget is a target, not an invariant — the
// serving layer's rebalancer computes fleet-wide targets first and applies
// them per synopsis afterwards, under only that synopsis's lock, so after a
// fleet-level budget change each SetBudget lands eventually rather than
// before the change returns. Within one synopsis the calls are still
// strictly ordered by its lock, which is what keeps persisted budget deltas
// replaying in apply order.
type Synopsis struct {
	kern *kernel.Kernel
	tab  *het.Table
	opt  estimate.Options

	// snap is the current estimation snapshot. Mutators replace the kernel
	// copy-on-write (subtree updates) or mutate the HET table in place and
	// then publish: a successor wrapping the table's next het.View, or
	// nothing when no value an estimate reads changed. The expanded path
	// tree inside each snapshot builds lazily under a singleflight, so a
	// feedback storm pays one EPT construction per *estimated* version, not
	// per mutation.
	snap atomic.Pointer[Snapshot]

	// replaying suspends snapshot publication and kernel copy-on-write
	// inside Replay — recovery-only, see Replay.
	replaying bool

	// kernMutated is set by Replay, which may change the kernel in place
	// behind the pointer the current snapshot holds: the next publication
	// must not keep that snapshot.
	kernMutated bool
}

// Replay runs fn — a single-threaded burst of mutations, such as a
// recovery delta-log replay — with snapshot publication suspended and
// subtree updates applied to the kernel in place, then publishes exactly
// one successor snapshot covering everything fn applied. Without it a
// 10k-record log replay would build 10k hyper-edge views (and clone the
// kernel per subtree record) for snapshots no reader can ever pin,
// regressing the store's O(delta) recovery to O(records × synopsis).
//
// Replay is NOT safe once the synopsis is visible to concurrent readers:
// it exists for the window before serving starts, where the caller owns
// the synopsis exclusively.
func (s *Synopsis) Replay(fn func() error) error {
	s.replaying = true
	err := fn()
	s.replaying = false
	s.kernMutated = true
	s.publish()
	return err
}

// publish installs a new estimation snapshot reflecting the current kernel
// and hyper-edge table, or keeps the current one — same version, same built
// EPT, every cached estimate still valid — when nothing an estimate reads
// changed: the same kernel and dictionary, and options holding the same
// hyper-edge view, which het.Table.View returns exactly when no resident
// lookup answer changed. Callers are the construction paths and the
// externally-serialized mutators, so at most one publish runs at a time;
// version numbers therefore increase by exactly one per estimate-affecting
// mutation.
func (s *Synopsis) publish() *Snapshot {
	old := s.snap.Load()
	if s.replaying {
		return old
	}
	opt := s.opt
	opt.HET = nil
	if s.tab != nil {
		opt.HET = s.tab.View()
	}
	// Kernel pointer unchanged and no labels interned since (feedback,
	// budget change): the frozen dictionary and label hashes are still
	// authoritative. The length check matters after Replay, which mutates
	// the kernel in place: same pointer, possibly new labels.
	sameDict := old != nil && old.es.Kernel() == s.kern && old.es.Dict().Len() == s.kern.Dict().Len()
	if sameDict && !s.kernMutated && old.es.Options() == opt {
		return old
	}
	s.kernMutated = false
	ver := uint64(1)
	if old != nil {
		ver = old.ver + 1
	}
	var es *estimate.Snapshot
	if sameDict {
		es = old.es.WithOptions(opt)
	} else {
		es = estimate.NewSnapshot(s.kern, s.kern.Dict().Clone(), opt)
	}
	sn := &Snapshot{ver: ver, es: es}
	s.snap.Store(sn)
	return sn
}

// BuildSynopsis constructs a synopsis for the document. cfg may be nil for
// defaults (kernel + 1BP HET, unlimited budget).
func BuildSynopsis(d *Document, cfg *Config) (*Synopsis, error) {
	if cfg == nil {
		cfg = &Config{}
	}
	hcfg := cfg.HET
	if hcfg == nil {
		hcfg = Default1BP()
	}
	if _, err := thresholdMicros(cfg.CardThreshold); err != nil {
		return nil, err
	}
	opt := estimate.Options{
		CardThreshold: cfg.CardThreshold,
		MaxEPTNodes:   cfg.MaxEPTNodes,
	}
	s := &Synopsis{kern: d.kern, opt: opt}
	switch {
	case hcfg.Disable:
		// bare kernel
	case hcfg.FeedbackOnly:
		s.tab = het.New(hcfg.BudgetBytes)
	default:
		tab, _ := het.Precompute(d.doc, d.pt, d.kern, het.PrecomputeOptions{
			MBP:                  hcfg.MBP,
			BselThreshold:        hcfg.BselThreshold,
			MaxCandidatesPerNode: hcfg.MaxCandidatesPerNode,
			Budget:               hcfg.BudgetBytes,
			EstimateOptions:      opt,
		})
		s.tab = tab
	}
	s.publish()
	return s, nil
}

// KernelOnly builds a synopsis with no HET (the paper's "XSEED kernel"
// configuration in Table 3).
func KernelOnly(d *Document, cfg *Config) (*Synopsis, error) {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	c.HET = &HETConfig{Disable: true}
	return BuildSynopsis(d, &c)
}

// Estimate returns the estimated cardinality of the query.
func (s *Synopsis) Estimate(query string) (float64, error) {
	return s.Snapshot().Estimate(query)
}

// EstimateQuery estimates a pre-parsed query.
func (s *Synopsis) EstimateQuery(q *Query) float64 { return s.Snapshot().EstimateQuery(q) }

// SizeBytes returns the synopsis memory footprint: kernel plus resident
// HET entries.
func (s *Synopsis) SizeBytes() int {
	n := s.kern.SizeBytes()
	if s.tab != nil {
		n += s.tab.SizeBytes()
	}
	return n
}

// KernelSizeBytes returns the kernel's size alone.
func (s *Synopsis) KernelSizeBytes() int { return s.kern.SizeBytes() }

// HETSizeBytes returns the resident hyper-edge table size (0 without HET).
func (s *Synopsis) HETSizeBytes() int {
	if s.tab == nil {
		return 0
	}
	return s.tab.SizeBytes()
}

// HETEntries returns (resident, total) hyper-edge counts.
func (s *Synopsis) HETEntries() (resident, total int) {
	if s.tab == nil {
		return 0, 0
	}
	return s.tab.NumResident(), s.tab.NumEntries()
}

// SetBudget adapts the synopsis to a total memory budget in bytes: the
// kernel is fixed; the hyper-edge table keeps its highest-error entries in
// the remainder (the paper's dynamic reconfiguration). A budget at or below
// the kernel size empties the resident HET; a negative budget removes the
// bound entirely (every entry resident), which is how the serving layer
// lifts a previously-imposed fleet budget.
func (s *Synopsis) SetBudget(totalBytes int) {
	if s.tab == nil {
		return
	}
	if totalBytes < 0 {
		s.tab.SetBudget(0) // het treats <=0 as unlimited
		s.publish()
		return
	}
	rest := totalBytes - s.kern.SizeBytes()
	if rest < 1 {
		rest = 1 // 1 byte admits nothing (0 would mean unlimited)
	}
	s.tab.SetBudget(rest)
	s.publish()
}

// Feedback records an executed query's actual cardinality into the HET
// (self-tuning; paper Figure 1). It is a no-op on kernel-only synopses.
func (s *Synopsis) Feedback(query string, actual float64) error {
	q, err := xpath.Parse(query)
	if err != nil {
		return err
	}
	s.FeedbackQuery(&Query{p: q}, actual)
	return nil
}

// FeedbackQuery is Feedback for a pre-parsed query. It returns the estimate
// the synopsis produced before absorbing the feedback (0 without an HET), so
// servers tracking accuracy don't have to pay for a second estimate.
func (s *Synopsis) FeedbackQuery(q *Query, actual float64) (estBefore float64) {
	estBefore, _, _ = s.FeedbackQueryDelta(q, actual)
	return estBefore
}

// HETDelta is the persistable effect of one feedback call on the hyper-edge
// table: re-applying it with ApplyHETDelta reproduces the table mutation
// without re-running estimation, which is what makes O(delta) durability
// possible (internal/store appends these to a log instead of rewriting the
// synopsis).
type HETDelta struct {
	Hash    uint32  `json:"hash"`
	Pattern bool    `json:"pattern,omitempty"`
	Card    float64 `json:"card"`
	Bsel    float64 `json:"bsel,omitempty"`
	BselOK  bool    `json:"bselOK,omitempty"`
	Err     float64 `json:"err,omitempty"`
}

// FeedbackQueryDelta is FeedbackQuery exposing the HET mutation it caused.
// applied is false when the synopsis has no HET or the query shape is one
// the HET ignores (nothing changed; cached estimates stay valid). Applied
// feedback that changes no value an estimate reads, such as a card the
// table already holds, keeps the current snapshot too.
func (s *Synopsis) FeedbackQueryDelta(q *Query, actual float64) (estBefore float64, delta HETDelta, applied bool) {
	estBefore, delta, applied = s.FeedbackQueryDeltaDeferred(q, actual)
	if applied {
		s.publish()
	}
	return estBefore, delta, applied
}

// FeedbackQueryDeltaDeferred is FeedbackQueryDelta without the snapshot
// publication: the HET mutates but readers keep estimating against the
// previous snapshot until the caller invokes Publish. It exists for batched
// feedback — applying N deltas and publishing once pays one view
// derivation, one snapshot and one EPT rebuild for the batch — and shares
// FeedbackQuery's external-serialization contract for mutators.
func (s *Synopsis) FeedbackQueryDeltaDeferred(q *Query, actual float64) (estBefore float64, delta HETDelta, applied bool) {
	if s.tab == nil {
		return 0, HETDelta{}, false
	}
	// The before-estimate runs against the current snapshot — the same value
	// any concurrent reader gets until the successor is published.
	sn := s.Snapshot()
	estBefore = sn.EstimateQuery(q)
	base := 0.0
	if !q.p.IsSimple() {
		base = sn.EstimateQuery(&Query{p: het.StripPreds(q.p)})
	}
	e, applied := s.tab.Feedback(q.p, actual, estBefore, base)
	if !applied {
		return estBefore, HETDelta{}, false
	}
	return estBefore, HETDelta{
		Hash:    e.Hash,
		Pattern: e.Pattern,
		Card:    e.Card,
		Bsel:    e.Bsel,
		BselOK:  e.BselOK,
		Err:     e.Err,
	}, true
}

// Publish installs one successor snapshot covering every deferred mutation
// applied since the last publication (see FeedbackQueryDeltaDeferred), or
// none when those mutations changed nothing an estimate reads. Like all
// mutators it must be externally serialized.
func (s *Synopsis) Publish() { s.publish() }

// ApplyHETDelta re-applies a recorded feedback delta (log replay during
// recovery). It is idempotent: the entry upserts by (hash, kind). A no-op on
// kernel-only synopses.
func (s *Synopsis) ApplyHETDelta(d HETDelta) {
	if s.tab == nil {
		return
	}
	s.tab.Add(het.Entry{
		Hash:    d.Hash,
		Pattern: d.Pattern,
		Card:    d.Card,
		Bsel:    d.Bsel,
		BselOK:  d.BselOK,
		Err:     d.Err,
	})
	s.publish()
}

// HasHET reports whether the synopsis carries a hyper-edge table (even one
// whose resident set is currently empty under a tight budget).
func (s *Synopsis) HasHET() bool { return s.tab != nil }

// AddSubtree incrementally maintains the kernel after inserting the XML
// subtree(s) in xml under the element path contextPath (labels from the
// root, e.g. ["dblp"]). Estimates reflect the update immediately; the HET
// keeps its recorded actuals (the paper's lazy maintenance — rebuild or
// re-feedback to refresh them).
//
// The kernel is updated copy-on-write: readers pinned to the previous
// snapshot keep traversing the pre-update graph, and a parse failure leaves
// the kernel, hyper-edge table, and published snapshot unchanged (labels
// interned from the rejected fragment before the parse error may remain in
// the shared dictionary — harmless to estimates, which resolve against each
// snapshot's frozen clone).
func (s *Synopsis) AddSubtree(contextPath []string, xml string) error {
	return s.updateSubtree(contextPath, xml, true)
}

// RemoveSubtree incrementally maintains the kernel after deleting the XML
// subtree(s) in xml from under contextPath (copy-on-write, like AddSubtree).
func (s *Synopsis) RemoveSubtree(contextPath []string, xml string) error {
	return s.updateSubtree(contextPath, xml, false)
}

func (s *Synopsis) updateSubtree(contextPath []string, xml string, add bool) error {
	p := xmldoc.NewParserString(xml)
	p.Fragment = true
	kern := s.kern
	if !s.replaying {
		// Copy-on-write for live mutations; during Replay no reader can
		// hold a snapshot, so the kernel mutates in place (O(delta)).
		kern = kern.Clone()
	}
	var err error
	if add {
		err = kern.AddSubtree(contextPath, p)
	} else {
		err = kern.RemoveSubtree(contextPath, p)
	}
	if err != nil {
		return err
	}
	s.kern = kern
	s.publish()
	return nil
}

// EPTStats reports the size of the expanded path tree of the current
// snapshot (the paper's Section 6.4 metric), building it if no estimate has
// run yet.
func (s *Synopsis) EPTStats() (nodes int, truncated bool) {
	return s.Snapshot().EPTStats()
}

// KernelString renders the kernel's edges in the paper's notation, for
// debugging.
func (s *Synopsis) KernelString() string { return s.kern.String() }

// Synopsis stream format. Version 1 (the seed format) had no header of its
// own: the stream began directly with the kernel's "XSK1" magic, so the
// format could never evolve without breaking every reader. Version 2 prefixes
// a 5-byte header — magic "XSNP" plus a version byte — ahead of the same
// body. ReadSynopsis still accepts v1 streams (it sniffs the kernel magic),
// so snapshots written by older builds keep loading byte-for-byte.
var synMagic = [4]byte{'X', 'S', 'N', 'P'}

// SnapshotVersion is the synopsis stream version WriteTo emits.
const SnapshotVersion = 2

// WriteTo serializes the synopsis (kernel and full HET) in the current
// versioned stream format. It implements io.WriterTo.
func (s *Synopsis) WriteTo(w io.Writer) (int64, error) {
	var total int64
	hn, err := w.Write(append(synMagic[:], SnapshotVersion))
	total += int64(hn)
	if err != nil {
		return total, err
	}
	n, err := s.kern.WriteTo(w)
	total += n
	if err != nil {
		return total, err
	}
	var flag [1]byte
	if s.tab != nil {
		flag[0] = 1
	}
	m, err := w.Write(flag[:])
	total += int64(m)
	if err != nil {
		return total, err
	}
	if s.tab != nil {
		n, err = s.tab.WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	// Options: threshold in millionths (range-checked when the synopsis was
	// built or read), EPT node cap, and a retired flag byte, written 0.
	var opts [17]byte
	micros, _ := thresholdMicros(s.opt.CardThreshold)
	binary.LittleEndian.PutUint64(opts[0:], uint64(micros))
	binary.LittleEndian.PutUint64(opts[8:], uint64(int64(s.opt.MaxEPTNodes)))
	m, err = w.Write(opts[:])
	total += int64(m)
	return total, err
}

// ReadSynopsis deserializes a synopsis written by WriteTo: the current
// versioned stream, or a bare v1 stream from a pre-versioning build.
func ReadSynopsis(r io.Reader) (*Synopsis, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("xseed: synopsis header: %w", err)
	}
	if [4]byte(head) == synMagic {
		var hdr [5]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("xseed: synopsis header: %w", err)
		}
		if v := hdr[4]; v != SnapshotVersion {
			return nil, fmt.Errorf("xseed: unsupported synopsis format version %d (this build reads v1 and v%d)", v, SnapshotVersion)
		}
	}
	// Anything else falls through to the kernel reader: a v1 stream starts
	// with the kernel magic "XSK1" and loads unchanged; garbage fails there
	// with its usual "bad magic" error.
	dict := xmldoc.NewDict()
	k, err := kernel.Read(br, dict)
	if err != nil {
		return nil, err
	}
	var flag [1]byte
	if _, err := io.ReadFull(br, flag[:]); err != nil {
		return nil, fmt.Errorf("xseed: synopsis flags: %w", err)
	}
	s := &Synopsis{kern: k}
	if flag[0] == 1 {
		tab, err := het.Read(br)
		if err != nil {
			return nil, err
		}
		s.tab = tab
	}
	var opts [17]byte
	if _, err := io.ReadFull(br, opts[:]); err != nil {
		return nil, fmt.Errorf("xseed: synopsis options: %w", err)
	}
	micros := int64(binary.LittleEndian.Uint64(opts[0:]))
	if micros <= -maxThresholdMicros || micros >= maxThresholdMicros {
		return nil, fmt.Errorf("xseed: synopsis options: card threshold field %d out of range", micros)
	}
	s.opt.CardThreshold = float64(micros) / 1e6
	s.opt.MaxEPTNodes = int(int64(binary.LittleEndian.Uint64(opts[8:])))
	s.publish()
	return s, nil
}

// maxThresholdMicros bounds the stored card threshold: a whole number of
// millionths below 2^51 survives the division by 1e6 on read and the
// rounded multiplication on the next write exactly; larger ones need not.
const maxThresholdMicros = 1 << 51

// thresholdMicros converts a card threshold to the millionths the stream
// stores, rounded to nearest.
func thresholdMicros(t float64) (int64, error) {
	m := math.Round(t * 1e6)
	if !(math.Abs(m) < maxThresholdMicros) { // also catches NaN
		return 0, fmt.Errorf("xseed: card threshold %v is outside ±%g", t, maxThresholdMicros/1e6)
	}
	return int64(m), nil
}
