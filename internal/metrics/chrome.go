package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// chromeEvent is one Chrome trace_event record. Field order is fixed by the
// struct, so encoding/json emits byte-identical output for identical runs.
// Timestamps and durations are microseconds (the format's native unit);
// simulated picoseconds convert at 1e6 ps/us without losing sub-ns detail
// thanks to the float mantissa at trace-scale magnitudes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   *uint64        `json:"id,omitempty"` // flow binding id ("s"/"f" pairs)
	Bp   string         `json:"bp,omitempty"` // flow bind point ("e": enclosing)
	Args map[string]any `json:"args,omitempty"`
}

// Flow is one message-flow arrow: Chrome draws it from the source lane at
// Start to the destination lane at End (flow-start "s" / flow-finish "f"
// event pair bound by ID). The tracing layer emits one per sampled message.
type Flow struct {
	ID                 uint64 // binding id, unique per arrow
	Name               string // arrow label (e.g. "msg eager 1KB")
	SrcNode, DstNode   int
	SrcTrack, DstTrack string
	Start, End         units.Time
	Args               map[string]any // optional arrow metadata
}

func toMicros(t units.Time) float64 { return float64(t) / 1e6 }

// WriteChromeTrace renders device-level spans fused with message-level
// timeline events and message-flow arrows as Chrome trace_event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. Each simulated
// node is a trace "process"; each track within a node ("bus", "nic",
// "rank3", ...) is a "thread". Spans become complete ("X") events;
// timeline events become thread-scoped instants ("i") on the owning rank's
// track. nodeOf maps a world rank to its node index (needed because the
// timeline records ranks, not nodes); pass nil when events is empty. Each
// Flow becomes a flow-start ("s") event on its source lane and a
// flow-finish ("f", bind point "e") event on its destination lane, so the
// viewer draws a causal arrow from send to delivery; flows may be nil.
// Output is deterministic: tids are assigned by sorted (node, track) order
// and encoding/json sorts arg keys.
func WriteChromeTrace(w io.Writer, spans []Span, events []trace.Event, nodeOf func(rank int) int, flows []Flow) error {
	type lane struct {
		node  int
		track string
	}
	lanes := make(map[lane]int)
	var order []lane
	note := func(l lane) {
		if _, ok := lanes[l]; !ok {
			lanes[l] = 0
			order = append(order, l)
		}
	}
	for _, s := range spans {
		note(lane{s.Node, s.Track})
	}
	rankLane := func(r int) lane {
		n := 0
		if nodeOf != nil {
			n = nodeOf(r)
		}
		return lane{n, fmt.Sprintf("rank%d", r)}
	}
	for _, e := range events {
		note(rankLane(e.Rank))
	}
	for _, f := range flows {
		note(lane{f.SrcNode, f.SrcTrack})
		note(lane{f.DstNode, f.DstTrack})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].node != order[j].node {
			return order[i].node < order[j].node
		}
		return order[i].track < order[j].track
	})
	var out []chromeEvent
	for tid, l := range order {
		lanes[l] = tid
		pname := fmt.Sprintf("node%d", l.node)
		if l.node == FabricNode {
			pname = "fabric"
		}
		out = append(out,
			chromeEvent{Name: "process_name", Ph: "M", Pid: l.node, Tid: tid,
				Args: map[string]any{"name": pname}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: l.node, Tid: tid,
				Args: map[string]any{"name": l.track}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: l.node, Tid: tid,
				Args: map[string]any{"sort_index": tid}},
		)
	}
	for _, s := range spans {
		dur := toMicros(s.End - s.Start)
		ev := chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: toMicros(s.Start), Dur: &dur,
			Pid: s.Node, Tid: lanes[lane{s.Node, s.Track}],
		}
		if s.Size > 0 {
			ev.Args = map[string]any{"bytes": s.Size}
		}
		out = append(out, ev)
	}
	for _, e := range events {
		l := rankLane(e.Rank)
		args := map[string]any{"peer": e.Peer, "tag": e.Tag, "comm": e.Comm}
		if e.Size > 0 {
			args["bytes"] = e.Size
		}
		ev := chromeEvent{
			Name: e.Kind.String(), Cat: "mpi-msg", Ph: "i",
			Ts: toMicros(e.At), Pid: l.node, Tid: lanes[l],
			S: "t", Args: args,
		}
		out = append(out, ev)
	}
	for i := range flows {
		f := &flows[i]
		out = append(out,
			chromeEvent{
				Name: f.Name, Cat: "msg-flow", Ph: "s",
				Ts: toMicros(f.Start), Pid: f.SrcNode,
				Tid: lanes[lane{f.SrcNode, f.SrcTrack}],
				ID:  &f.ID, Args: f.Args,
			},
			chromeEvent{
				Name: f.Name, Cat: "msg-flow", Ph: "f", Bp: "e",
				Ts: toMicros(f.End), Pid: f.DstNode,
				Tid: lanes[lane{f.DstNode, f.DstTrack}],
				ID:  &f.ID,
			},
		)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Unit        string        `json:"displayTimeUnit"`
	}{TraceEvents: out, Unit: "ns"})
}
