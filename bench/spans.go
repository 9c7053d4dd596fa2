package main

import (
	"encoding/json"
	"io"
	"time"
)

// tracer holds the traced pass's spans in memory until the run ends. A nil
// tracer records nothing, so untraced iterations pay one nil check per span.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one timed call into a layer. IDs start at 1; parent 0 is the root.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // offsets from the tracer's start
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = time.Since(t.t0)
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events in microseconds), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
