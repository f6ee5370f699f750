package estimate

import (
	"fmt"
	"strconv"
	"strings"

	"xseed/internal/kernel"
	"xseed/internal/xmldoc"
)

// EventKind classifies traveler events.
type EventKind uint8

const (
	// OpenEvent is emitted when the traveler starts visiting an EPT node.
	OpenEvent EventKind = iota
	// CloseEvent is emitted when the visit of an EPT node finishes.
	CloseEvent
	// EOSEvent signals end of stream.
	EOSEvent
)

// Event is one traveler event (paper Algorithm 2): the vertex label, the
// DeweyID of the EPT node, and the estimated cardinality and selectivities
// of the current rooted path.
type Event struct {
	Kind  EventKind
	Label xmldoc.LabelID
	Dewey string
	Card  float64
	Fsel  float64
	Bsel  float64
}

// Traveler streams the expanded path tree as open/close events with
// DeweyIDs, the interface Algorithm 2 exposes to the matcher. The
// underlying EPT is generated by the same EST recurrences (see BuildEPT);
// streaming over it reproduces the paper's event sequence exactly.
type Traveler struct {
	stack []travFrame
	done  bool
	eos   bool
}

type travFrame struct {
	node    *EPTNode
	dewey   string
	chdIdx  int
	emitted bool
}

// NewTraveler returns a traveler streaming an already-built expanded path
// tree (a snapshot's EPT, or BuildEPT's), so every streaming estimate
// against a snapshot replays the one EPT built for it.
func NewTraveler(root *EPTNode) *Traveler {
	t := &Traveler{}
	if root != nil {
		t.stack = []travFrame{{node: root, dewey: "1."}}
	} else {
		t.done = true
	}
	return t
}

// NextEvent returns the next event in depth-first order, ending with a
// single EOSEvent.
func (t *Traveler) NextEvent() Event {
	for {
		if len(t.stack) == 0 {
			t.eos = true
			return Event{Kind: EOSEvent}
		}
		top := &t.stack[len(t.stack)-1]
		if !top.emitted {
			top.emitted = true
			n := top.node
			return Event{Kind: OpenEvent, Label: n.Label, Dewey: top.dewey,
				Card: n.Card, Fsel: n.Fsel, Bsel: n.Bsel}
		}
		if top.chdIdx < len(top.node.Children) {
			child := top.node.Children[top.chdIdx]
			top.chdIdx++
			dewey := top.dewey + strconv.Itoa(top.chdIdx) + "."
			t.stack = append(t.stack, travFrame{node: child, dewey: dewey})
			continue
		}
		n := top.node
		dewey := top.dewey
		t.stack = t.stack[:len(t.stack)-1]
		return Event{Kind: CloseEvent, Label: n.Label, Dewey: dewey,
			Card: n.Card, Fsel: n.Fsel, Bsel: n.Bsel}
	}
}

// DumpEPTXML renders the expanded path tree as the XML document shown in
// Section 4 of the paper, with cardinality and selectivities as attributes.
func DumpEPTXML(k *kernel.Kernel, opt Options) string {
	dict := k.Dict()
	root, _ := BuildEPT(k, opt)
	tr := NewTraveler(root)
	var sb strings.Builder
	depth := 0
	var pending *Event
	flushOpen := func(selfClose bool) {
		if pending == nil {
			return
		}
		sb.WriteString(strings.Repeat("  ", depth-1))
		fmt.Fprintf(&sb, `<%s dID=%q card=%s fsel=%s bsel=%s`,
			dict.Name(pending.Label), pending.Dewey,
			quoteNum(pending.Card), quoteNum(pending.Fsel), quoteNum(pending.Bsel))
		if selfClose {
			sb.WriteString("/>\n")
		} else {
			sb.WriteString(">\n")
		}
		pending = nil
	}
	for {
		evt := tr.NextEvent()
		if evt.Kind == EOSEvent {
			break
		}
		if evt.Kind == OpenEvent {
			flushOpen(false)
			depth++
			e := evt
			pending = &e
			continue
		}
		// Close event.
		if pending != nil {
			flushOpen(true)
			depth--
			continue
		}
		depth--
		sb.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&sb, "</%s>\n", dict.Name(evt.Label))
	}
	return sb.String()
}

// quoteNum renders a float the way the paper's dump does: integers without
// a decimal point, fractions in short form.
func quoteNum(f float64) string {
	if f == float64(int64(f)) {
		return `"` + strconv.FormatInt(int64(f), 10) + `"`
	}
	return `"` + strconv.FormatFloat(f, 'g', 4, 64) + `"`
}
