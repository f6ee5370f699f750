package estimate

import (
	"xseed/internal/pathhash"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// StreamEstimate evaluates a query over the event stream of the snapshot's
// EPT in a single pass with memory proportional to the EPT depth (plus
// buffered contributions) — the execution style of the paper's Algorithm 3:
// candidate matches buffer in per-frame queues and resolve when close
// events reveal whether predicates matched.
//
// Supported query shape: arbitrary child/descendant axes and wildcards on
// the main path, with predicates restricted to single child-axis name
// steps (the paper's BP/CP workload shape and exactly what the hyper-edge
// table stores). ok reports false for queries outside this shape; callers
// fall back to the materialized matcher. On supported queries the result
// equals the materialized matcher's except where a descendant axis yields
// several embeddings for one EPT node with different predicate weights (the
// materialized matcher merges per step with the maximum weight; the
// streaming matcher keeps the maximum pre-resolution weight, which can pick
// a different chain). Pred-free queries and child-axis-only queries agree
// exactly; the cross-validation tests assert both.
func (sn *Snapshot) StreamEstimate(q *xpath.Path) (est float64, ok bool) {
	if !streamable(q) {
		return 0, false
	}
	m := newStreamMatcher(sn.dict, q, sn.opt.HET)
	root, _ := sn.EPT()
	return runStream(m, NewTraveler(root))
}

// runStream drains the traveler through the matcher.
func runStream(m *streamMatcher, tr *Traveler) (float64, bool) {
	for {
		evt := tr.NextEvent()
		if evt.Kind == EOSEvent {
			break
		}
		if evt.Kind == OpenEvent {
			m.open(evt)
		} else {
			m.close()
		}
	}
	return m.total, true
}

// streamable reports whether every predicate is a single child-axis name
// step (the shape simplePredLabels accepts).
func streamable(q *xpath.Path) bool {
	for i := range q.Steps {
		if _, ok := simplePredLabels(q.Steps[i].Preds); !ok {
			return false
		}
	}
	return true
}

// depEntry names one unresolved predicate weight: frame f matched main-path
// step `step`, whose predicates resolve when f closes.
type depEntry struct {
	f    *streamFrame
	step int
}

// pending is a buffered result contribution — the analog of the paper's
// output queues: a value waiting for the predicate weights of the frames in
// deps (ordered innermost first).
type pending struct {
	value float64
	deps  []depEntry
}

// matchInfo is one main-path step match at a frame: the chain weight (1
// unless an ancestor's predicates already resolved — they never have, so
// weights stay 1 and deps carry the unresolved factors) and the chain's
// dependency list, outermost first.
type matchInfo struct {
	deps []depEntry
}

// streamFrame is the matcher state for one open EPT node.
type streamFrame struct {
	label xmldoc.LabelID
	card  float64
	bsel  float64

	// matches[i] holds the dependency chain for this node's match of
	// main-path step i (first chain wins; see StreamEstimate).
	matches map[int]matchInfo

	// predSeen accumulates Σ bsel of children per predicate label for the
	// matched steps that carry predicates.
	predSeen map[xmldoc.LabelID]float64

	// queue buffers contributions from the subtree whose innermost
	// unresolved dependency is this frame.
	queue []pending
}

type streamMatcher struct {
	dict  *xmldoc.Dict
	het   HET
	steps []streamStep

	stack []*streamFrame
	total float64
}

type streamStep struct {
	axis     xpath.Axis
	label    xmldoc.LabelID
	wildcard bool
	known    bool // label resolves in the dictionary
	preds    []xmldoc.LabelID
	predStrs []string
	nextStr  string // label of the following step ("" if none or wildcard)
}

func newStreamMatcher(dict *xmldoc.Dict, q *xpath.Path, h HET) *streamMatcher {
	m := &streamMatcher{dict: dict, het: h}
	for i := range q.Steps {
		st := &q.Steps[i]
		ss := streamStep{axis: st.Axis, wildcard: st.Wildcard, known: true}
		if !st.Wildcard {
			ss.label, ss.known = dict.Lookup(st.Label)
		}
		for _, p := range st.Preds {
			id, ok := dict.Lookup(p.Steps[0].Label)
			if !ok {
				id = -2 // never matches; weight stays 0
			}
			ss.preds = append(ss.preds, id)
			ss.predStrs = append(ss.predStrs, p.Steps[0].Label)
		}
		if i+1 < len(q.Steps) && !q.Steps[i+1].Wildcard {
			ss.nextStr = q.Steps[i+1].Label
		}
		m.steps = append(m.steps, ss)
	}
	return m
}

func (m *streamMatcher) stepMatches(i int, label xmldoc.LabelID) bool {
	s := &m.steps[i]
	return s.wildcard || (s.known && s.label == label)
}

// chainTo extends ancestor anc's match of step i to a new match of step
// i+1: the dependency list grows by anc itself when step i carries
// predicates (they resolve at anc's close).
func (m *streamMatcher) chainTo(anc *streamFrame, i int, mi matchInfo) matchInfo {
	deps := mi.deps
	if len(m.steps[i].preds) > 0 {
		// Copy-on-extend: chains share prefixes.
		deps = append(append([]depEntry{}, deps...), depEntry{anc, i})
	}
	return matchInfo{deps: deps}
}

// open processes an open event.
func (m *streamMatcher) open(evt Event) {
	f := &streamFrame{label: evt.Label, card: evt.Card, bsel: evt.Bsel}
	depth := len(m.stack)

	// Step 0 matches from the virtual root: child axis only at depth 0,
	// descendant axis anywhere.
	if m.stepMatches(0, evt.Label) && (m.steps[0].axis == xpath.Descendant || depth == 0) {
		f.addMatch(0, matchInfo{})
	}
	// Step i+1 via the parent (child axis) or any ancestor (descendant).
	if depth > 0 {
		parent := m.stack[depth-1]
		for i, mi := range parent.matches {
			if i+1 < len(m.steps) && m.steps[i+1].axis == xpath.Child && m.stepMatches(i+1, evt.Label) {
				f.addMatch(i+1, m.chainTo(parent, i, mi))
			}
		}
		for _, anc := range m.stack {
			for i, mi := range anc.matches {
				if i+1 < len(m.steps) && m.steps[i+1].axis == xpath.Descendant && m.stepMatches(i+1, evt.Label) {
					f.addMatch(i+1, m.chainTo(anc, i, mi))
				}
			}
		}
	}

	// Feed the parent's predicate accumulator: predicates are child-axis
	// steps, so only direct children count.
	if depth > 0 {
		parent := m.stack[depth-1]
		if parent.predSeen != nil {
			if _, interested := parent.predSeen[evt.Label]; interested {
				parent.predSeen[evt.Label] += evt.Bsel
			}
		}
	}

	// Initialize this frame's own predicate accumulators for matched
	// predicated steps.
	for i := range f.matches {
		if len(m.steps[i].preds) > 0 {
			if f.predSeen == nil {
				f.predSeen = map[xmldoc.LabelID]float64{}
			}
			for _, p := range m.steps[i].preds {
				if _, exists := f.predSeen[p]; !exists {
					f.predSeen[p] = 0
				}
			}
		}
	}

	// Result-step match: buffer card × (chain deps + own-step deps).
	last := len(m.steps) - 1
	if mi, ok := f.matches[last]; ok {
		deps := mi.deps
		if len(m.steps[last].preds) > 0 {
			deps = append(append([]depEntry{}, deps...), depEntry{f, last})
		}
		// emit wants innermost-first; chains build outermost-first.
		rev := make([]depEntry, len(deps))
		for i, d := range deps {
			rev[len(deps)-1-i] = d
		}
		m.emit(pending{value: evt.Card, deps: rev})
	}

	m.stack = append(m.stack, f)
}

// addMatch records a step match; the first chain wins (ties in weight are
// impossible to break without materializing, see StreamEstimate).
func (f *streamFrame) addMatch(i int, mi matchInfo) {
	if f.matches == nil {
		f.matches = map[int]matchInfo{}
	}
	if _, ok := f.matches[i]; !ok {
		f.matches[i] = mi
	}
}

// emit routes a contribution: to the total when fully resolved, else into
// its innermost dependency's queue.
func (m *streamMatcher) emit(p pending) {
	if len(p.deps) == 0 {
		m.total += p.value
		return
	}
	inner := p.deps[0].f
	inner.queue = append(inner.queue, p)
}

// close resolves the top frame: scale queued contributions by the frame's
// per-step predicate weight and pass them outward.
func (m *streamMatcher) close() {
	n := len(m.stack)
	f := m.stack[n-1]
	m.stack = m.stack[:n-1]
	for _, p := range f.queue {
		step := p.deps[0].step
		p.deps = p.deps[1:]
		p.value *= m.stepPredWeight(f, &m.steps[step])
		if p.value == 0 {
			continue
		}
		m.emit(p)
	}
	f.queue = nil
}

// stepPredWeight mirrors the materialized matcher's predicate weighting:
// whole-set HET pattern, then per-predicate HET patterns, then independence
// over accumulated child bsels.
func (m *streamMatcher) stepPredWeight(f *streamFrame, s *streamStep) float64 {
	if m.het != nil && s.nextStr != "" {
		h := pathhash.Pattern(m.dict.Name(f.label), s.predStrs, s.nextStr)
		if bsel, ok := m.het.LookupPattern(h); ok {
			return clamp01(bsel)
		}
	}
	w := 1.0
	for pi, p := range s.preds {
		if m.het != nil && s.nextStr != "" && len(s.preds) > 1 {
			h := pathhash.Pattern(m.dict.Name(f.label), s.predStrs[pi:pi+1], s.nextStr)
			if bsel, ok := m.het.LookupPattern(h); ok {
				w *= clamp01(bsel)
				continue
			}
		}
		var pw float64
		if p >= 0 {
			pw = clamp01(f.predSeen[p])
		}
		if pw == 0 {
			return 0
		}
		w *= pw
	}
	return clamp01(w)
}
