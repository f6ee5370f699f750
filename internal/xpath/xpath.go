// Package xpath implements the path expression subset of the XSEED paper:
// absolute paths over child (/) and descendant-or-self-based descendant (//)
// axes, name and wildcard (*) node tests, and nested structural predicates
// ([...]). Queries are classified into the paper's three workload classes —
// simple paths (SP), branching paths (BP), and complex paths (CP) — and the
// query recursion level (QRL, Definition 2) is computable.
package xpath

// Axis is a location step axis.
type Axis uint8

const (
	// Child is the XPath child:: axis, written "/".
	Child Axis = iota
	// Descendant is the descendant axis, written "//".
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Step is one location step: an axis, a node test, and zero or more
// structural predicates (each a relative path). The two one-byte fields
// come last, where they share one word of padding: 48 bytes, not 56.
type Step struct {
	Label    string  // node test; ignored when Wildcard
	Preds    []*Path // relative predicate paths
	Axis     Axis
	Wildcard bool
}

// Matches reports whether the step's node test accepts a label.
func (s *Step) Matches(label string) bool {
	return s.Wildcard || s.Label == label
}

// Path is a parsed path expression: a sequence of steps. An absolute path's
// first step applies from the virtual document root; a predicate path is
// relative to its context node (its first step's axis still distinguishes
// [c] from [.//c]).
type Path struct {
	Steps []Step
}

// Class is the paper's workload classification of a query.
type Class uint8

const (
	// SimplePath: linear, /-axes only (SP).
	SimplePath Class = iota
	// BranchingPath: predicates, but /-axes only (BP).
	BranchingPath
	// ComplexPath: contains //-axes and/or wildcards (CP).
	ComplexPath
)

func (c Class) String() string {
	switch c {
	case SimplePath:
		return "SP"
	case BranchingPath:
		return "BP"
	default:
		return "CP"
	}
}

// Classify returns the query's workload class.
func (p *Path) Classify() Class {
	simpleAxes, hasPreds := true, false
	var scan func(q *Path)
	scan = func(q *Path) {
		for i := range q.Steps {
			s := &q.Steps[i]
			if s.Axis == Descendant || s.Wildcard {
				simpleAxes = false
			}
			if len(s.Preds) > 0 {
				hasPreds = true
			}
			for _, pr := range s.Preds {
				scan(pr)
			}
		}
	}
	scan(p)
	switch {
	case simpleAxes && !hasPreds:
		return SimplePath
	case simpleAxes:
		return BranchingPath
	default:
		return ComplexPath
	}
}

// IsSimple reports whether the path is a simple path (SP).
func (p *Path) IsSimple() bool { return p.Classify() == SimplePath }

// Labels returns the node test labels of a simple path. It panics if the
// path is not simple; callers must check IsSimple first.
func (p *Path) Labels() []string {
	if !p.IsSimple() {
		panic("xpath: Labels on non-simple path")
	}
	out := make([]string, len(p.Steps))
	for i := range p.Steps {
		out[i] = p.Steps[i].Label
	}
	return out
}

// MaxPredsPerStep returns the maximum number of predicates attached to any
// single step, at any nesting depth (the paper's kBP/kCP workload
// parameter).
func (p *Path) MaxPredsPerStep() int {
	max := 0
	var scan func(q *Path)
	scan = func(q *Path) {
		for i := range q.Steps {
			s := &q.Steps[i]
			if len(s.Preds) > max {
				max = len(s.Preds)
			}
			for _, pr := range s.Preds {
				scan(pr)
			}
		}
	}
	scan(p)
	return max
}

// QRL returns the query recursion level (Definition 2): the maximum, over
// rooted paths in the query tree, of (occurrences of the same node test with
// //-axis along the path) - 1, never negative. Wildcard //-steps count
// together under one pseudo-test, which makes //*//* recursive as the paper
// requires.
func (p *Path) QRL() int {
	max := 0
	counts := map[string]int{}
	var walk func(q *Path, idx int)
	walk = func(q *Path, idx int) {
		if idx >= len(q.Steps) {
			return
		}
		s := &q.Steps[idx]
		key := ""
		if s.Axis == Descendant {
			if s.Wildcard {
				key = "*"
			} else {
				key = s.Label
			}
			counts[key]++
			if counts[key]-1 > max {
				max = counts[key] - 1
			}
			// A //-wildcard can stand for any label, so it extends every
			// label's chain as well.
			if s.Wildcard {
				for k, v := range counts {
					if k != "*" && v > max {
						// counts[k] existing occurrences + this wildcard
						max = v
					}
				}
			}
		}
		for _, pr := range s.Preds {
			walk(pr, 0)
		}
		walk(q, idx+1)
		if key != "" {
			counts[key]--
		}
	}
	walk(p, 0)
	return max
}

// IsRecursive reports whether the query is recursive (QRL > 0).
func (p *Path) IsRecursive() bool { return p.QRL() > 0 }

// NumSteps returns the number of steps on the main path (predicates not
// counted).
func (p *Path) NumSteps() int { return len(p.Steps) }

// String renders the path in the concrete syntax accepted by Parse. It
// renders into a stack buffer, so a path of up to 128 bytes costs one
// allocation, its result.
func (p *Path) String() string {
	var buf [128]byte
	return string(p.appendTo(buf[:0], false))
}

func (p *Path) appendTo(b []byte, relative bool) []byte {
	for i := range p.Steps {
		s := &p.Steps[i]
		if i == 0 && relative {
			// Inside a predicate, a leading child axis is implicit and a
			// leading descendant axis is written ".//". A leading child
			// step named "." is written "./." so that it cannot merge with
			// the next step into one of those prefixes.
			if s.Axis == Descendant {
				b = append(b, ".//"...)
			} else if !s.Wildcard && s.Label == "." {
				b = append(b, "./"...)
			}
		} else {
			b = append(b, s.Axis.String()...)
		}
		if s.Wildcard {
			b = append(b, '*')
		} else {
			b = append(b, s.Label...)
		}
		for _, pr := range s.Preds {
			b = append(b, '[')
			b = pr.appendTo(b, true)
			b = append(b, ']')
		}
	}
	return b
}

// Clone returns a deep copy of the path.
func (p *Path) Clone() *Path {
	q := &Path{Steps: make([]Step, len(p.Steps))}
	for i := range p.Steps {
		s := p.Steps[i]
		cp := Step{Axis: s.Axis, Label: s.Label, Wildcard: s.Wildcard}
		for _, pr := range s.Preds {
			cp.Preds = append(cp.Preds, pr.Clone())
		}
		q.Steps[i] = cp
	}
	return q
}
