// Package het implements the XSEED hyper-edge table (paper Section 5): a
// table of actual cardinalities for simple paths and correlated backward
// selectivities for branching patterns, keyed by 32-bit incremental path
// hashes. The HET patches the cases where the kernel's independence
// assumptions (ancestor independence, Example 4; sibling independence,
// Example 5) break.
//
// Precompute builds the table from the document's path tree: simple paths
// take their counts from the tree's nodes, and each branching candidate's
// actual cardinality is counted from the extent of its parent path (the
// elements with that rooted label path), not by evaluating its query.
//
// Entries are ranked by absolute estimation error. The full table plays the
// role of the paper's "secondary storage" copy; only the top-k entries that
// fit the memory budget are resident and consulted by the estimator, so the
// synopsis can be dynamically reconfigured when the budget changes.
package het

import (
	"math"
	"slices"
	"sort"

	"xseed/internal/pathhash"
	"xseed/internal/xpath"
)

// EntrySize is the budget accounting per resident entry: 4-byte hash +
// 8-byte cardinality + 4-byte selectivity, as in the paper's "hashed
// integer (32 bits) ... serves as a key to the actual cardinality and the
// correlated backward selectivity".
const EntrySize = 16

// Entry is one hyper-edge.
type Entry struct {
	Hash    uint32
	Pattern bool    // false: rooted simple path; true: branching pattern p[q...]/r
	Card    float64 // actual cardinality
	Bsel    float64 // actual (paths) or correlated (patterns) backward selectivity
	BselOK  bool    // false when only the cardinality is known (query feedback)
	Err     float64 // |estimate - actual| priority; not part of EntrySize
}

// tkey identifies an entry: path and pattern hashes live in separate
// namespaces.
type tkey struct {
	hash    uint32
	pattern bool
}

// Table is a hyper-edge table. The zero value is unusable; use New.
//
// all stays sorted by Err descending at all times, maintained incrementally:
// an Add binary-searches for the rank position and shifts only the span
// between the entry's old and new slots, instead of re-sorting the whole
// table per feedback. Residency is then just the prefix all[:limit], so
// SetBudget — the paper's dynamic reconfiguration, which the serving layer's
// rebalancer calls while holding a synopsis's write lock — is O(1) rather
// than a full map rebuild.
type Table struct {
	budget int

	// all is every known hyper-edge, sorted by Err descending ("secondary
	// storage").
	all []Entry

	// idx locates every entry (resident or not) by (hash, kind).
	idx map[tkey]int

	// dups holds the keys with more than one entry in all: AddBatch keeps
	// colliding hashes, which real tables have (treebank ×0.1's 39k
	// precomputed entries hold one pair), and Add never creates one. Nil
	// when there are none.
	dups map[tkey]struct{}

	// limit is the resident prefix length: all[:limit] fits the budget.
	limit int

	// view is the last View handed out, and touched the keys whose lookup
	// answer may have changed since; View derives its successor from
	// them. A nil view makes the next View a full build.
	view    *View
	touched []tkey
}

// New returns an empty table with the given memory budget in bytes. A
// budget <= 0 keeps every entry resident.
func New(budgetBytes int) *Table {
	return &Table{budget: budgetBytes, idx: make(map[tkey]int)}
}

// LookupPath implements estimate.HET.
func (t *Table) LookupPath(h uint32) (card, bsel float64, bselOK, ok bool) {
	i, ok := t.idx[tkey{h, false}]
	if !ok || i >= t.limit {
		return 0, 0, false, false
	}
	e := &t.all[i]
	return e.Card, e.Bsel, e.BselOK, true
}

// LookupPattern implements estimate.HET.
func (t *Table) LookupPattern(h uint32) (bsel float64, ok bool) {
	i, ok := t.idx[tkey{h, true}]
	if !ok || i >= t.limit {
		return 0, false
	}
	e := &t.all[i]
	if !e.BselOK {
		return 0, false
	}
	return e.Bsel, true
}

// Add upserts an entry by (hash, kind), keeping rank order. An incoming
// entry that carries no backward selectivity (BselOK false — card-only query
// feedback) merges with an existing one instead of replacing it wholesale:
// the precomputed Bsel survives, only the cardinality and error refresh.
// This merge runs identically during delta-log replay (ApplyHETDelta calls
// Add), so recovered tables match live ones.
func (t *Table) Add(e Entry) {
	k := tkey{e.Hash, e.Pattern}
	if i, ok := t.idx[k]; ok {
		if old := &t.all[i]; !e.BselOK && old.BselOK {
			e.Bsel, e.BselOK = old.Bsel, old.BselOK
		}
		t.all[i] = e
		t.reposition(i)
		t.touch(k)
		return
	}
	// New entry: insert after any equal-Err entries (the order a stable
	// append-then-sort would produce).
	pos := sort.Search(len(t.all), func(i int) bool { return t.all[i].Err < e.Err })
	t.all = append(t.all, Entry{})
	copy(t.all[pos+1:], t.all[pos:])
	t.all[pos] = e
	for j := pos; j < len(t.all); j++ {
		t.idx[tkey{t.all[j].Hash, t.all[j].Pattern}] = j
	}
	t.limit = t.residentLimit()
	t.touch(k)
}

// touch records, after an Add of k, every key whose lookup answer the Add
// may have changed: k itself, and the entries now at limit-1 and limit.
// An Add moves every other entry by at most one slot, so only those two can
// have crossed the resident boundary. A list longer than the table (a long
// Replay) is worth less than a full build, so it drops the view instead.
func (t *Table) touch(k tkey) {
	if t.view == nil {
		return
	}
	t.touched = append(t.touched, k)
	for _, i := range [2]int{t.limit - 1, t.limit} {
		if i >= 0 && i < len(t.all) {
			t.touched = append(t.touched, tkey{t.all[i].Hash, t.all[i].Pattern})
		}
	}
	if len(t.touched) > len(t.all) {
		t.dropView()
	}
}

// dropView makes the next View a full build.
func (t *Table) dropView() { t.view, t.touched = nil, nil }

// reposition restores rank order after the entry at i changed its error,
// shifting only the entries between its old and new positions.
func (t *Table) reposition(i int) {
	e := t.all[i]
	if i > 0 && t.all[i-1].Err < e.Err {
		// Error grew: move left, past strictly smaller errors only.
		j := sort.Search(i, func(p int) bool { return t.all[p].Err < e.Err })
		copy(t.all[j+1:i+1], t.all[j:i])
		t.all[j] = e
		for p := j; p <= i; p++ {
			t.idx[tkey{t.all[p].Hash, t.all[p].Pattern}] = p
		}
		return
	}
	if i < len(t.all)-1 && e.Err < t.all[i+1].Err {
		// Error shrank: move right, past strictly larger-or-equal errors.
		j := i + sort.Search(len(t.all)-i-1, func(p int) bool { return t.all[i+1+p].Err < e.Err })
		copy(t.all[i:j], t.all[i+1:j+1])
		t.all[j] = e
		for p := i; p <= j; p++ {
			t.idx[tkey{t.all[p].Hash, t.all[p].Pattern}] = p
		}
	}
}

// AddBatch inserts many entries at once with a single sort (the precompute
// and deserialization path). Entries are assumed unique by (hash, kind);
// duplicates keep one index winner, as the old per-prefix map rebuild did.
func (t *Table) AddBatch(entries []Entry) {
	t.all = append(t.all, entries...)
	slices.SortStableFunc(t.all, byErrDesc)
	t.idx = make(map[tkey]int, len(t.all))
	for i := range t.all {
		t.idx[tkey{t.all[i].Hash, t.all[i].Pattern}] = i
	}
	t.dups = nil
	if len(t.idx) < len(t.all) {
		t.dups = make(map[tkey]struct{})
		for i := range t.all {
			if k := (tkey{t.all[i].Hash, t.all[i].Pattern}); t.idx[k] != i {
				t.dups[k] = struct{}{}
			}
		}
	}
	t.limit = t.residentLimit()
	t.dropView()
}

// byErrDesc orders entries by Err descending; a NaN Err ties with every
// other.
func byErrDesc(a, b Entry) int {
	switch {
	case a.Err > b.Err:
		return -1
	case a.Err < b.Err:
		return 1
	}
	return 0
}

// SetBudget changes the resident memory budget in bytes and recomputes the
// resident set. This is the "dynamic reconfiguration" the paper describes:
// entries can be dropped or readmitted at any time without touching the
// kernel. Residency is a prefix of the ranked table, so this is O(1); a
// change of the resident set makes the next View a full build.
func (t *Table) SetBudget(bytes int) {
	t.budget = bytes
	if limit := t.residentLimit(); limit != t.limit {
		t.limit = limit
		t.dropView()
	}
}

// Budget returns the configured budget in bytes (<= 0: unlimited).
func (t *Table) Budget() int { return t.budget }

// SizeBytes returns the resident size under EntrySize accounting.
func (t *Table) SizeBytes() int { return t.limit * EntrySize }

// NumEntries returns the total number of known entries (resident or not).
func (t *Table) NumEntries() int { return len(t.all) }

// NumResident returns the number of resident entries.
func (t *Table) NumResident() int { return t.limit }

// Entries returns a copy of all entries in rank order, for inspection.
func (t *Table) Entries() []Entry {
	out := make([]Entry, len(t.all))
	copy(out, t.all)
	return out
}

func (t *Table) residentLimit() int {
	limit := len(t.all)
	if t.budget > 0 {
		if max := t.budget / EntrySize; max < limit {
			limit = max
		}
	}
	return limit
}

// pathVal is what a View answers for one simple-path hash; ok false (all
// fields zero) is a miss, which an overlay stores as a tombstone for a key
// that left the resident set.
type pathVal struct {
	card   float64
	bsel   float64
	bselOK bool
	ok     bool
}

// patVal is what a View answers for one branching-pattern hash.
type patVal struct {
	bsel float64
	ok   bool
}

func (a pathVal) same(b pathVal) bool {
	return math.Float64bits(a.card) == math.Float64bits(b.card) &&
		math.Float64bits(a.bsel) == math.Float64bits(b.bsel) &&
		a.bselOK == b.bselOK && a.ok == b.ok
}

func (a patVal) same(b patVal) bool {
	return math.Float64bits(a.bsel) == math.Float64bits(b.bsel) && a.ok == b.ok
}

// View is an immutable snapshot of the table's resident set. It implements
// the estimator's HET interface, so an estimation snapshot can keep
// consulting the hyper-edges it was published with while feedback and budget
// changes mutate the live table underneath — lock-free readers never observe
// a half-shifted rank array.
//
// A view is a flat base of the resident set plus an overlay of the keys
// whose answer changed since the base was built. Table.View derives each
// view from the last one it handed out, sharing the base and copying the
// overlay, so a publication costs what the feedback changed rather than
// O(resident); once the overlay outgrows a fixed share of the base, the
// table flattens into a new base. Nothing reachable from a view is written
// after it is handed out.
type View struct {
	// paths and patterns are the flat base, shared by every view derived
	// from it. Paths and patterns key separate maps so that lookups stay on
	// the runtime's 32-bit-key fast path.
	paths    map[uint32]pathVal
	patterns map[uint32]float64

	// opaths and opatterns overlay the base; nil when empty.
	opaths    map[uint32]pathVal
	opatterns map[uint32]patVal
}

// Flattening threshold: a derived view whose overlay holds more than
// len(base)/overlayShare + overlayFloor keys is rebuilt as a flat base.
const (
	overlayShare = 8
	overlayFloor = 64
)

// View returns an immutable view of the current resident set: the last view
// handed out when no lookup answer changed since (pointer equality is how
// the publishing layer knows an estimate would read the same values),
// otherwise a successor derived from it through the touched keys, or a full
// build after AddBatch, a resident-limit change, or an overlay that
// outgrew its base.
func (t *Table) View() *View {
	old := t.view
	if old == nil {
		return t.flatten()
	}
	var opaths map[uint32]pathVal
	var opatterns map[uint32]patVal
	for _, k := range t.touched {
		if k.pattern {
			if now := t.patternAnswer(k.hash); !now.same(old.pattern(k.hash)) {
				if opatterns == nil {
					opatterns = cloneOverlay(old.opatterns)
				}
				opatterns[k.hash] = now
			}
		} else if now := t.pathAnswer(k.hash); !now.same(old.path(k.hash)) {
			if opaths == nil {
				opaths = cloneOverlay(old.opaths)
			}
			opaths[k.hash] = now
		}
	}
	t.touched = t.touched[:0]
	if opaths == nil && opatterns == nil {
		return old
	}
	v := *old
	if opaths != nil {
		v.opaths = opaths
	}
	if opatterns != nil {
		v.opatterns = opatterns
	}
	if len(v.opaths)+len(v.opatterns) > (len(v.paths)+len(v.patterns))/overlayShare+overlayFloor {
		return t.flatten()
	}
	t.view = &v
	return t.view
}

// flatten builds a view of the resident prefix with an empty overlay and
// makes it the one later views derive from.
func (t *Table) flatten() *View {
	t.view, t.touched = t.build(), t.touched[:0]
	return t.view
}

// build returns a flat view of the resident prefix, written in rank order.
func (t *Table) build() *View {
	v := &View{
		paths:    make(map[uint32]pathVal, t.limit),
		patterns: make(map[uint32]float64, t.limit/4),
	}
	for i := 0; i < t.limit; i++ {
		e := &t.all[i]
		if e.Pattern {
			// LookupPattern only answers when a backward selectivity is
			// known; entries without one are invisible, same as the table.
			if e.BselOK {
				v.patterns[e.Hash] = e.Bsel
			}
			continue
		}
		v.paths[e.Hash] = pathVal{card: e.Card, bsel: e.Bsel, bselOK: e.BselOK, ok: true}
	}
	return v
}

// answerPos returns the position of the entry a flat view of the table
// answers k from, or -1 when it answers a miss: the key's entry when it is
// resident (and, for a pattern, carries a selectivity). build writes the
// prefix in rank order, so for a key with duplicates the last qualifying
// resident copy wins; those keys are rare, and scanned.
func (t *Table) answerPos(k tkey) int {
	if _, dup := t.dups[k]; !dup {
		if i, ok := t.idx[k]; ok && i < t.limit && (!k.pattern || t.all[i].BselOK) {
			return i
		}
		return -1
	}
	for i := t.limit - 1; i >= 0; i-- {
		if e := &t.all[i]; e.Hash == k.hash && e.Pattern == k.pattern && (!k.pattern || e.BselOK) {
			return i
		}
	}
	return -1
}

// pathAnswer is what a flat view of the table answers for path hash h.
func (t *Table) pathAnswer(h uint32) pathVal {
	i := t.answerPos(tkey{h, false})
	if i < 0 {
		return pathVal{}
	}
	e := &t.all[i]
	return pathVal{card: e.Card, bsel: e.Bsel, bselOK: e.BselOK, ok: true}
}

// patternAnswer is what a flat view of the table answers for pattern hash h.
func (t *Table) patternAnswer(h uint32) patVal {
	i := t.answerPos(tkey{h, true})
	if i < 0 {
		return patVal{}
	}
	return patVal{bsel: t.all[i].Bsel, ok: true}
}

// cloneOverlay copies an overlay map (nil included) for a successor view to
// extend.
func cloneOverlay[V any](m map[uint32]V) map[uint32]V {
	out := make(map[uint32]V, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (v *View) path(h uint32) pathVal {
	if v.opaths != nil {
		if p, hit := v.opaths[h]; hit {
			return p
		}
	}
	return v.paths[h]
}

func (v *View) pattern(h uint32) patVal {
	if v.opatterns != nil {
		if p, hit := v.opatterns[h]; hit {
			return p
		}
	}
	bsel, ok := v.patterns[h]
	return patVal{bsel: bsel, ok: ok}
}

// LookupPath implements estimate.HET over the frozen resident set.
func (v *View) LookupPath(h uint32) (card, bsel float64, bselOK, ok bool) {
	p := v.path(h)
	return p.card, p.bsel, p.bselOK, p.ok
}

// LookupPattern implements estimate.HET over the frozen resident set.
func (v *View) LookupPattern(h uint32) (bsel float64, ok bool) {
	p := v.pattern(h)
	return p.bsel, p.ok
}

// Feedback records an executed query's actual cardinality (paper Figure 1:
// "the optimizer may feedback the actual cardinality or selectivity of the
// query to the HET"). Simple paths store the actual cardinality; queries of
// the form .../p[preds...]/r with single-step child predicates store a
// correlated backward selectivity computed against baseEstimate, the
// synopsis estimate of the same query without the predicates. Other query
// shapes are ignored (the paper's HET covers SP and leaf-level branching).
//
// The upserted entry is returned with applied=true so callers can persist
// the table mutation as a delta (re-applying it with Add reproduces the
// table state without re-estimating); ignored shapes return applied=false.
func (t *Table) Feedback(q *xpath.Path, actual, estimate, baseEstimate float64) (delta Entry, applied bool) {
	if q.IsSimple() {
		labels := q.Labels()
		delta = Entry{
			Hash: pathhash.Path(labels...),
			Card: actual,
			Err:  abs(estimate - actual),
		}
		t.Add(delta)
		return delta, true
	}
	parent, preds, next, ok := leafBranchShape(q)
	if !ok || baseEstimate <= 0 {
		return Entry{}, false
	}
	corr := actual / baseEstimate
	if corr > 1 {
		corr = 1
	}
	delta = Entry{
		Hash:    pathhash.Pattern(parent, preds, next),
		Pattern: true,
		Card:    actual,
		Bsel:    corr,
		BselOK:  true,
		Err:     abs(estimate - actual),
	}
	t.Add(delta)
	return delta, true
}

// leafBranchShape recognizes queries of the form
// /l1/.../p[q1]...[qk]/r where exactly one step carries predicates, all
// predicates are single child-axis name steps, and the predicated step has
// a following step. It returns the pattern components.
func leafBranchShape(q *xpath.Path) (parent string, preds []string, next string, ok bool) {
	predStep := -1
	for i := range q.Steps {
		if len(q.Steps[i].Preds) == 0 {
			continue
		}
		if predStep >= 0 {
			return "", nil, "", false
		}
		predStep = i
	}
	if predStep < 0 || predStep == len(q.Steps)-1 {
		return "", nil, "", false
	}
	st := &q.Steps[predStep]
	nextStep := &q.Steps[predStep+1]
	if st.Wildcard || nextStep.Wildcard || nextStep.Axis != xpath.Child {
		return "", nil, "", false
	}
	for _, p := range st.Preds {
		if len(p.Steps) != 1 {
			return "", nil, "", false
		}
		ps := &p.Steps[0]
		if ps.Axis != xpath.Child || ps.Wildcard || len(ps.Preds) != 0 {
			return "", nil, "", false
		}
		preds = append(preds, ps.Label)
	}
	return st.Label, preds, nextStep.Label, true
}

// StripPreds returns a copy of q with every predicate removed — the base
// query used to compute correlated selectivities from feedback.
func StripPreds(q *xpath.Path) *xpath.Path {
	c := q.Clone()
	for i := range c.Steps {
		c.Steps[i].Preds = nil
	}
	return c
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
