package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span (-1 for a request root).
// replay marks work the benchmark re-executes only to attribute time (see
// replay.go), which is not on the request path as the daemon runs it.
type span struct {
	name       string
	req        int
	parent     int
	replay     bool
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for one single-threaded replay. A tracer
// that is off records nothing, so the same replay code measures the
// tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int
	req   int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// request starts the root span of a new request.
func (t *tracer) request(name string) {
	t.req++
	t.begin(name, false)
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string, replay bool) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		replay = replay || t.spans[parent].replay
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, replay: replay, start: time.Since(t.epoch)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = time.Since(t.epoch)
	t.stack = t.stack[:n]
}

// durations returns the duration of every span with the name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// p50 is the median duration of the named spans, in unit.
func (t *tracer) p50(name string, unit time.Duration) float64 {
	v, _ := percentile(t.durations(name, unit), 50)
	return v
}

// total is the summed duration of the named spans.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeSelfTable prints calls, total and self time per span name, largest
// self time first. derived names a layer whose self time is computed by
// subtracting replay-tagged spans that re-executed part of its work.
func (t *tracer) writeSelfTable(w io.Writer, derived string, minus ...string) {
	type row struct {
		name        string
		calls       int
		total, self time.Duration
	}
	rows := map[string]*row{}
	self := t.selfTimes()
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &row{name: s.name}
			rows[s.name] = r
		}
		r.calls++
		r.total += s.end - s.start
		r.self += self[i]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "  %-26s %9s %12s %12s\n", "span", "calls", "total ms", "self ms")
	for _, r := range list {
		tag := ""
		if r.name == derived {
			d := r.total
			for _, m := range minus {
				d -= t.total(m)
			}
			tag = fmt.Sprintf("  (derived self %.3f ms: total minus replayed %v)", ms(d), minus)
		}
		fmt.Fprintf(w, "  %-26s %9d %12.3f %12.3f%s\n", r.name, r.calls, ms(r.total), ms(r.self), tag)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`  // µs
	Dur  float64   `json:"dur"` // µs
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	Req    int `json:"req"`
	Span   int `json:"span"`
	Parent int `json:"parent"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// writeChrome writes the spans to path in Chrome trace-event format.
func (t *tracer) writeChrome(path string) error {
	tf := traceFile{DisplayTimeUnit: "ns", TraceEvents: make([]traceEvent, len(t.spans))}
	for i, s := range t.spans {
		cat := "layer"
		if s.replay {
			cat = "replay"
		}
		tf.TraceEvents[i] = traceEvent{Name: s.name, Cat: cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: 1,
			Args: traceArgs{Req: s.req, Span: i, Parent: s.parent}}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
