package main

import (
	"encoding/json"
	"os"
	"time"
)

// The traced run's recorder. Spans are kept in memory, each with its
// request, parent, start and end, and written out when the run ends.

// span is one timed layer call.
type span struct {
	Req    int     `json:"req"`    // request index, -1 for side work
	Name   string  `json:"name"`   // layer.call
	Parent int     `json:"parent"` // index of the enclosing span, -1 at top level
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

type request struct {
	Kind  string  `json:"kind"`
	Start float64 `json:"start_ms"`
	End   float64 `json:"end_ms"`
}

type tracer struct {
	t0    time.Time
	spans []span
	reqs  []request
	cur   int // open request, -1 outside one
	open  []int
	// counts are per-request (or side) integer observations, by name.
	counts map[string][]float64
	// muted suspends recording: set-up work runs through the same
	// calls but leaves no spans or counts.
	muted bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, counts: map[string][]float64{}}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Millisecond) }

// request runs fn as one replayed request of the given kind.
func (t *tracer) request(kind string, fn func()) {
	t.reqs = append(t.reqs, request{Kind: kind, Start: t.now()})
	t.cur = len(t.reqs) - 1
	fn()
	t.reqs[t.cur].End = t.now()
	t.cur = -1
}

// span times fn as a span nested under the innermost open one.
func (t *tracer) span(name string, fn func()) {
	if t.muted {
		fn()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Req: t.cur, Name: name, Parent: parent, Start: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

func (t *tracer) count(name string, v float64) {
	if !t.muted {
		t.counts[name] = append(t.counts[name], v)
	}
}

// layerMS is the median over requests (or side calls) of a span
// name's time per request; spans of one request are summed.
func (t *tracer) layerMS(name string) float64 {
	per := map[int]float64{}
	var side []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if s.Req < 0 {
			side = append(side, s.End-s.Start)
		} else {
			per[s.Req] += s.End - s.Start
		}
	}
	vals := side
	for _, v := range per {
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

// selfMS is layerMS minus the time the span's children cover.
func (t *tracer) selfMS(name string) float64 {
	per := map[int]float64{}
	for i, s := range t.spans {
		if s.Name == name && s.Req >= 0 {
			per[s.Req] += s.End - s.Start
			for _, c := range t.spans[i+1:] {
				if c.Parent == i {
					per[s.Req] -= c.End - c.Start
				}
			}
		}
	}
	vals := make([]float64, 0, len(per))
	for _, v := range per {
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

// coverage is the share of the end-to-end request time that the layer
// spans account for: per request kind, the median over replayed
// requests of their top-level span time, summed over kinds, divided by
// the summed median latencies live flexd showed for the same kinds
// (ref). What the spans miss — HTTP, handler glue, scheduling — is the
// attribution gap.
func (t *tracer) coverage(ref map[string]float64) float64 {
	per := make([]float64, len(t.reqs))
	for _, s := range t.spans {
		if s.Req >= 0 && s.Parent < 0 {
			per[s.Req] += s.End - s.Start
		}
	}
	byKind := map[string][]float64{}
	for i, r := range t.reqs {
		byKind[r.Kind] = append(byKind[r.Kind], per[i])
	}
	var covered, live float64
	for k, v := range byKind {
		if r, ok := ref[k]; ok {
			covered += median(v)
			live += r
		}
	}
	if live == 0 {
		return 0
	}
	return covered / live
}

// write dumps the spans and requests as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(map[string]any{"requests": t.reqs, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
