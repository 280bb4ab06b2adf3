package main

import "time"

// span is one call across a layer boundary, recorded by the benchmark
// around the program's public entry points. Spans of one point or op
// share Group; Parent is -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Group  int32  `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out at exit. A nil
// tracer records nothing, so the untraced drive runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, group int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Group: group,
		Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// call wraps fn in a span.
func (t *tracer) call(name string, parent, group int32, fn func() error) error {
	id := t.begin(name, parent, group)
	err := fn()
	t.end(id)
	return err
}

// selfUS returns the self time of every span with the given name, in
// µs: its duration minus the durations of its children.
func (t *tracer) selfUS(name string) []float64 {
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[s.ID])/1e3)
		}
	}
	return out
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	N         int     `json:"n"`
	TotalP50  float64 `json:"total_p50_us"`
	SelfP50   float64 `json:"self_p50_us"`
	SelfTotal float64 `json:"self_sum_us"`
}

// summary returns the count, median duration, median self time and
// summed self time of the spans of every name.
func (t *tracer) summary() map[string]spanStat {
	names := map[string]bool{}
	for _, s := range t.spans {
		names[s.Name] = true
	}
	out := make(map[string]spanStat, len(names))
	for n := range names {
		self := t.selfUS(n)
		out[n] = spanStat{N: len(self), TotalP50: median(t.totalUS(n)), SelfP50: median(self), SelfTotal: sum(self)}
	}
	return out
}

// totalUS returns the full duration of every span with the given name,
// in µs.
func (t *tracer) totalUS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}
