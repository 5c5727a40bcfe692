package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer of the simulator, recorded by the
// benchmark around a call it makes. A span's module is its name up to the
// first dot ("sim.StreamWorld" belongs to sim).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Count is how many calls the span covers when one span times a loop
	// of identical calls; 0 means one.
	Count int `json:"count,omitempty"`
}

// Module returns the layer the span's call belongs to.
func (s Span) Module() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one process's spans in memory. A nil *tracer records
// nothing and reads no clock, which is how untraced runs use the same
// code path.
type tracer struct {
	run   string
	base  time.Time
	spans []Span
	open  []int // IDs of the spans begun and not yet ended, innermost last
}

func newTracer(run string) *tracer { return &tracer{run: run, base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// parent is the innermost open span, or 0.
func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// begin opens a span as a child of the innermost open one and returns
// its ID for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: t.parent(), Run: t.run, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; it must be the innermost open one.
func (t *tracer) end(id int) {
	t.endN(id, 0)
}

// endN closes a span that timed count identical calls.
func (t *tracer) endN(id, count int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = t.now()
	t.spans[id-1].Count = count
	t.open = t.open[:len(t.open)-1]
}

// mark returns a timestamp for add; 0 on a nil tracer.
func (t *tracer) mark() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// add records an already-closed span over [start, end) as a child of the
// innermost open span: the stream's days, which happen between two
// callbacks rather than inside a call the benchmark makes.
func (t *tracer) add(name string, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: t.parent(), Run: t.run, Name: name, Start: start, End: end})
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per module, each span's duration minus the part of it
// its child spans cover.
func selfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Module()] += s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, children []Span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			total += v[1] - lo
		}
		reach = max(reach, v[1])
	}
	return time.Duration(total)
}

// checkNesting reports the first span that does not lie inside its
// parent or names a parent that does not exist.
func checkNesting(spans []Span) error {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End || s.Run != p.Run {
			return fmt.Errorf("span %d %s [%d, %d] lies outside its parent %d %s [%d, %d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}
