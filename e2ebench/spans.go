package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call, made by the benchmark, into a layer of the
// program. Spans of one request or sweep point share Trace; Parent is the
// enclosing span's ID (0 for a root). Start and End are nanoseconds since
// the tracer began.
//
// A folded span stands for Calls back-to-back calls of the same function on
// one goroutine (the per-round SelectMoves and Apply calls of a run): Start
// and End bound the first and last call, and Busy is the time spent inside
// the calls. For an ordinary span Calls is 1 and Busy is End−Start.
type Span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Calls  int64  `json:"calls"`
	Busy   int64  `json:"busy"`
}

// Layer is the span's layer: its name up to the first dot, which is an
// internal/ package name, "server", or "bench" for the benchmark's own
// request roots.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer keeps spans in memory until the benchmark writes them out. A nil
// *Tracer records nothing, so untraced code paths call it unconditionally.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
	nextID int64
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// now returns nanoseconds since the tracer began (0 on a nil tracer).
func (t *Tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t    *Tracer
	span Span
}

// start opens a span named name under parent (0 for a root) in trace.
func (t *Tracer) start(name string, trace, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, span: Span{Name: name, Trace: trace, ID: t.newID(), Parent: parent, Start: t.now(), Calls: 1}}
}

func (t *Tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// id is the span's ID, for use as its children's parent.
func (o openSpan) id() int64 { return o.span.ID }

// end closes the span, records it and returns its duration in nanoseconds.
func (o openSpan) end() int64 {
	if o.t == nil {
		return 0
	}
	o.span.End = o.t.now()
	o.span.Busy = o.span.End - o.span.Start
	o.t.record(o.span)
	return o.span.Busy
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// fold accumulates back-to-back calls of one function into a folded span.
type fold struct {
	name             string
	start, end, busy int64
	calls            int64
	started          bool
}

// add counts one call that ran from from to to (tracer nanoseconds).
func (f *fold) add(from, to int64) {
	if !f.started {
		f.start, f.started = from, true
	}
	f.end = to
	f.busy += to - from
	f.calls++
}

// flush records f as a folded span under parent in trace.
func (t *Tracer) flush(f *fold, trace, parent int64) {
	if t == nil || f.calls == 0 {
		return
	}
	t.record(Span{Name: f.name, Trace: trace, ID: t.newID(), Parent: parent,
		Start: f.start, End: f.end, Calls: f.calls, Busy: f.busy})
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeJSONL writes spans to path, one JSON object per line.
func writeJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time by ID: its busy time minus the
// part of it that its children cover. Ordinary children cover the union of
// their intervals clipped to the parent, so overlapping children (parallel
// workers) are not counted twice; a folded child covers its busy time, since
// its calls run on the parent's goroutine between the other children.
func selfTimes(spans []Span) map[int64]int64 {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		var ivs [][2]int64
		for _, c := range kids[s.ID] {
			if c.Calls > 1 {
				covered += c.Busy
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		covered += unionLength(ivs)
		self[s.ID] = max(s.Busy-covered, 0)
	}
	return self
}

// unionLength is the total length covered by the intervals.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums self time (ns) per layer.
func layerSelf(spans []Span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Layer()] += self[s.ID]
	}
	return out
}

// closure is the share of the root spans' total duration that their child
// spans cover — the part of each request the layers account for rather
// than leaving unattributed in the root. Children that overlap (parallel
// calls) count once.
func closure(spans []Span) float64 {
	self := selfTimes(spans)
	var roots, unattributed int64
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.Busy
			unattributed += self[s.ID]
		}
	}
	if roots == 0 {
		return 0
	}
	return 1 - float64(unattributed)/float64(roots)
}
