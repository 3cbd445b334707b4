package main

import "time"

// span is one timed call into a layer: what ran, when, under which span,
// and the counts taken at that boundary. Spans stay in memory until the run
// ends and are then written to the -spans file.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // -1 at the root
	Run     string             `json:"run"`    // shared by the spans of one traced run
	Name    string             `json:"name"`
	StartUS float64            `json:"start_us"` // since the run began
	EndUS   float64            `json:"end_us"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer records the spans of one traced run. The run is single-threaded,
// so the span that causes a new one is simply the innermost open span.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// in runs f inside a span called name.
func (t *tracer) in(name string, f func() error) error {
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, StartUS: micros(time.Since(t.t0))})
	t.open = append(t.open, id)
	err := f()
	t.spans[id].EndUS = micros(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return err
}

// count records a count on the innermost open span.
func (t *tracer) count(name string, v float64) {
	s := &t.spans[t.open[len(t.open)-1]]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[name] = v
}

// self is the self time, in seconds, of the spans called name: their
// duration minus the part their child spans cover.
func (t *tracer) self(name string) float64 {
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.EndUS - s.StartUS
		} else if s.Parent >= 0 && t.spans[s.Parent].Name == name {
			us -= s.EndUS - s.StartUS
		}
	}
	return us / 1e6
}
