package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer of the program. Spans are recorded
// by the benchmark around the public calls it makes; Parent links a call to
// the span that caused it (0 for a top-level span) and Job groups the spans
// of one job (-1 for layer probes).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Scans is the physical scans the call made, where the benchmark can
	// attribute them to it.
	Scans int `json:"physical_scans,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run calls the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name string, parent, job int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// setScans records the physical scans span id made.
func (t *tracer) setScans(id, scans int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Scans = scans
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, job int, fn func() error) error {
	id := t.begin(name, parent, job)
	err := fn()
	t.end(id)
	return err
}

// durations returns the durations of every span called name, in order.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// medianMS is the median duration of the spans called name, in ms.
func (t *tracer) medianMS(name string) float64 {
	ds := t.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// cpuPerScanMS is the median, over spans called name that made physical
// scans, of the time each spent beyond its scans — its duration minus
// scans × scanMS, the cost of a bare scan — divided by its scans.
func (t *tracer) cpuPerScanMS(name string, scanMS float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name && s.Scans > 0 {
			xs = append(xs, (ms(s.End-s.Start)-float64(s.Scans)*scanMS)/float64(s.Scans))
		}
	}
	return median(xs)
}

// selfMS sums, per span name, each span's self time: its duration minus
// the time its child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += ms(selfTime(interval{s.Start, s.End}, children[s.ID]))
	}
	return out
}

// write saves every span as JSON, in start order.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	slices.SortStableFunc(spans, func(a, b span) int { return int(a.Start - b.Start) })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
