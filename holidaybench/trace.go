package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// traceEvery samples one op in this many for tracing.
const traceEvery = 16

// Span is one timed call at a layer boundary. Spans of one sampled op share
// Trace; Parent is the ID of the enclosing span within that trace, or -1 for
// the op's root. Name is "<layer>.<call>"; times are nanoseconds since the
// traced phase began.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer returns the span's layer: the name up to its first dot.
func (s Span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer collects spans in memory and writes them out when the run ends.
// Each load worker appends to its own opTrace without locking; spans
// recorded on other goroutines for an op (the HTTP handler, the journal) go
// through addLive, which locks.
type tracer struct {
	epoch  time.Time
	traces atomic.Uint64

	mu    sync.Mutex
	spans []Span
	live  map[liveKey]liveOp // ops awaiting a span from another goroutine
}

// liveKey identifies an in-flight op to code that runs on its behalf but
// cannot be handed the trace: a journal record (community, u, v) or an HTTP
// request (trace id in a header, other fields zero).
type liveKey struct {
	community string
	u, v      int
	trace     uint64
}

// liveOp is where a span recorded for a live key belongs.
type liveOp struct {
	trace  uint64
	parent int32
	next   *atomic.Int32 // the op's span-id counter
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), live: make(map[liveKey]liveOp)}
}

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// opTrace is the span list of one sampled op while it runs.
type opTrace struct {
	t     *tracer
	trace uint64
	next  atomic.Int32 // shared with spans added through a live key
	spans []Span
}

// begin starts a sampled op and its root span.
func (t *tracer) begin() *opTrace {
	id := t.traces.Add(1)
	o := &opTrace{t: t, trace: id}
	o.next.Store(1)
	o.spans = append(o.spans, Span{Trace: id, ID: 0, Parent: -1, Name: "op.root", Start: t.now()})
	return o
}

// start opens a child span under parent and returns its id. The opTrace
// methods are no-ops on nil, the trace of an unsampled op.
func (o *opTrace) start(name string, parent int32) int32 {
	if o == nil {
		return 0
	}
	id := o.next.Add(1) - 1
	o.spans = append(o.spans, Span{Trace: o.trace, ID: id, Parent: parent, Name: name, Start: o.t.now()})
	return id
}

// end closes span id, optionally renaming it (a Schedule call is named once
// it is known whether it froze).
func (o *opTrace) end(id int32, rename string) {
	if o == nil {
		return
	}
	for i := len(o.spans) - 1; i >= 0; i-- {
		if o.spans[i].ID == id {
			o.spans[i].End = o.t.now()
			if rename != "" {
				o.spans[i].Name = rename
			}
			return
		}
	}
}

// register lets another goroutine attach spans under parent while the op
// runs; the returned function unregisters.
func (o *opTrace) register(k liveKey, parent int32) func() {
	o.t.mu.Lock()
	o.t.live[k] = liveOp{trace: o.trace, parent: parent, next: &o.next}
	o.t.mu.Unlock()
	return func() {
		o.t.mu.Lock()
		delete(o.t.live, k)
		o.t.mu.Unlock()
	}
}

// finish closes the root span and hands the op's spans to the tracer.
func (o *opTrace) finish() {
	o.spans[0].End = o.t.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.spans...)
	o.t.mu.Unlock()
}

// addLive records a span for the op registered under k, if any.
func (t *tracer) addLive(k liveKey, name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.live[k]
	if !ok {
		return
	}
	id := l.next.Add(1) - 1
	t.spans = append(t.spans, Span{Trace: l.trace, ID: id, Parent: l.parent, Name: name, Start: start, End: end})
}

// all returns every finished span.
func (t *tracer) all() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(t.all())
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// selfTimes returns, aligned with spans, each span's duration minus the part
// of its interval covered by its children (children clipped to the parent's
// interval, overlapping children counted once).
func selfTimes(spans []Span) []int64 {
	type key struct {
		trace uint64
		id    int32
	}
	children := make(map[key][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[key{s.Trace, s.ID}] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates spans by name and by layer.
type spanSummary struct {
	count     map[string]int64
	dur       map[string]int64 // total duration per span name
	self      map[string]int64 // total self time per span name
	layerSelf map[string]int64 // total self time per layer
	roots     int64
	rootDur   int64
}

func summarize(spans []Span) spanSummary {
	s := spanSummary{
		count: map[string]int64{}, dur: map[string]int64{},
		self: map[string]int64{}, layerSelf: map[string]int64{},
	}
	for i, st := range selfTimes(spans) {
		sp := spans[i]
		s.count[sp.Name]++
		s.dur[sp.Name] += sp.End - sp.Start
		s.self[sp.Name] += st
		s.layerSelf[sp.layer()] += st
		if sp.Parent < 0 {
			s.roots++
			s.rootDur += sp.End - sp.Start
		}
	}
	return s
}

// meanMicros returns the mean duration of the spans named name, in µs; 0
// when there are none.
func (s spanSummary) meanMicros(name string) float64 {
	return float64(s.dur[name]) / float64(max(s.count[name], 1)) / 1e3
}

// meanSelfMicros returns the mean self time of the spans named name, in µs.
func (s spanSummary) meanSelfMicros(name string) float64 {
	return float64(s.self[name]) / float64(max(s.count[name], 1)) / 1e3
}

// unattributedFrac is the share of root-span time no child span covers.
func (s spanSummary) unattributedFrac() float64 {
	if s.rootDur == 0 {
		return 0
	}
	return float64(s.layerSelf["op"]) / float64(s.rootDur)
}
