package main

import (
	"sort"
	"sync"
	"time"

	"metis/internal/obs"
)

// memTracer keeps the program's trace records in memory (an
// obs.Tracer), beside the benchmark's own spans around each public call.
type memTracer struct {
	mu      sync.Mutex
	records []obs.Record
	spans   []benchSpan
}

// benchSpan is a span the benchmark records around one call into the
// program. Parent is the id of the enclosing benchmark span (0 = none).
type benchSpan struct {
	ID, Parent int
	Name       string
	Start      time.Time
	Dur        time.Duration
}

// Emit implements obs.Tracer.
func (t *memTracer) Emit(r obs.Record) {
	t.mu.Lock()
	t.records = append(t.records, r)
	t.mu.Unlock()
}

// begin opens a benchmark span under parent and returns its id.
func (t *memTracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, benchSpan{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Now()})
	return len(t.spans)
}

// end closes the benchmark span id.
func (t *memTracer) end(id int) {
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Dur = time.Since(s.Start)
	t.mu.Unlock()
}

// interval is one span's extent.
type interval struct {
	start, end time.Time
}

// spansNamed returns the extents of the program's spans called name,
// sorted by start.
func (t *memTracer) spansNamed(name string) []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []interval
	for _, r := range t.records {
		if r.Kind == "span" && r.Name == name {
			out = append(out, interval{r.Start, r.Start.Add(r.Dur)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// benchSpansNamed returns the benchmark's spans called name.
func (t *memTracer) benchSpansNamed(name string) []benchSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []benchSpan
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the lengths of the intervals.
func total(spans []interval) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.end.Sub(s.start)
	}
	return d
}

// selfTime returns Σ parent length minus the part of each parent that
// its children cover. Both lists must be sorted by start; children of
// one parent must not overlap each other (the solver stack calls its
// LPs one at a time).
func selfTime(parents, children []interval) time.Duration {
	var self time.Duration
	for _, p := range parents {
		self += p.end.Sub(p.start)
		k := sort.Search(len(children), func(i int) bool { return !children[i].start.Before(p.start) })
		for ; k < len(children) && children[k].start.Before(p.end); k++ {
			end := children[k].end
			if end.After(p.end) {
				end = p.end
			}
			self -= end.Sub(children[k].start)
		}
	}
	return self
}
