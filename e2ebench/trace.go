package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans are kept in memory and
// written out when the run ends.
type span struct {
	Name     string
	Start    int64 // ns since the run epoch
	End      int64
	Parent   int32 // index of the enclosing span, -1 for none
	Producer string
	Seq      uint64
}

// maxSpans bounds the in-memory span buffer; spans past it are counted
// but not kept.
const maxSpans = 1 << 20

// tracer collects spans while it is on. A nil *tracer is valid and
// records nothing, so the untraced run pays one nil check per call site.
// It is switched only between phases, while the pipeline is drained.
//
// open/close nest spans on one stack: they are used only by the store
// chain (dedup -> store -> WAL write), which runs on one goroutine at a
// time — the store daemon's connection reader or its ingest loop.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	stack   []int32
	dropped int
}

// Span handles returned by open besides a span index.
const (
	spanOff     = -1 // tracer off: nothing pushed
	spanDropped = -2 // buffer full: pushed but not kept
)

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// open starts a span nested in the innermost open one and returns its
// handle for close.
func (t *tracer) open(name, producer string, seq uint64) int32 {
	if !t.active() {
		return spanOff
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := int32(spanDropped)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Producer: producer, Seq: seq})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, idx)
	return idx
}

// close ends the innermost open span.
func (t *tracer) close(idx int32) {
	if idx == spanOff {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		t.stack = t.stack[:n-1]
	}
	if idx >= 0 {
		t.spans[idx].End = now
	}
}

// add records a finished span with an explicit parent.
func (t *tracer) add(name string, start, end time.Time, parent int32) {
	t.addID(name, start, end, parent, "", 0)
}

func (t *tracer) addID(name string, start, end time.Time, parent int32, producer string, seq uint64) {
	if !t.active() {
		return
	}
	s := span{Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent, Producer: producer, Seq: seq}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once, and children are clipped to the parent's interval).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			self[i] = dur
			continue
		}
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := int64(0)
		cur := iv{-1, -1}
		for _, v := range ivs {
			if v.lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = v
			} else if v.hi > cur.hi {
				cur.hi = v.hi
			}
		}
		covered += cur.hi - cur.lo
		self[i] = dur - covered
	}
	return self
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer  string
	Spans  int
	SelfNs int64
}

// layerOf maps a span name ("dsos.store") to its layer ("dsos").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerTable sums self time per layer, sorted by layer name.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	by := map[string]*layerRow{}
	for i, s := range spans {
		l := layerOf(s.Name)
		r := by[l]
		if r == nil {
			r = &layerRow{Layer: l}
			by[l] = r
		}
		r.Spans++
		r.SelfNs += self[i]
	}
	names := make([]string, 0, len(by))
	for l := range by {
		names = append(names, l)
	}
	sort.Strings(names)
	rows := make([]layerRow, 0, len(names))
	for _, l := range names {
		rows = append(rows, *by[l])
	}
	return rows
}

// mergeLayerRows adds b's self times into a, by layer, sorted by layer
// name.
func mergeLayerRows(a, b []layerRow) []layerRow {
	at := map[string]int{}
	for i, r := range a {
		at[r.Layer] = i
	}
	for _, r := range b {
		if i, ok := at[r.Layer]; ok {
			a[i].Spans += r.Spans
			a[i].SelfNs += r.SelfNs
			continue
		}
		a = append(a, r)
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Layer < a[j].Layer })
	return a
}

// writeLayerTable prints the self-time table; perEvent divides by the
// number of traced events.
func writeLayerTable(w io.Writer, rows []layerRow, events int) {
	fmt.Fprintf(w, "%-12s %10s %14s %16s\n", "layer", "spans", "self_ms", "self_ns/event")
	for _, r := range rows {
		per := 0.0
		if events > 0 {
			per = float64(r.SelfNs) / float64(events)
		}
		fmt.Fprintf(w, "%-12s %10d %14.3f %16.1f\n", r.Layer, r.Spans, float64(r.SelfNs)/1e6, per)
	}
}

// dumpSpans writes the spans as CSV (name, start, end, parent, producer,
// seq), one per line.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "idx,name,start_ns,end_ns,parent,producer,seq")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%s,%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Producer, s.Seq)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// enable switches span recording; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}
