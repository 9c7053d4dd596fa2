package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// chromeEvent is one Chrome trace_event record. Field order is fixed by the
// struct, so encoding/json emits byte-identical output for identical runs.
// Timestamps and durations are microseconds (the format's native unit);
// simulated picoseconds convert at 1e6 ps/us without losing sub-ns detail
// thanks to the float mantissa at trace-scale magnitudes.
type chromeEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat,omitempty"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	S    string   `json:"s,omitempty"`
	ID   *uint64  `json:"id,omitempty"` // flow binding id ("s"/"f" pairs)
	Bp   string   `json:"bp,omitempty"` // flow bind point ("e": enclosing)
	// Args is a map[string]any, or a span's pre-encoded *json.RawMessage;
	// nil omits the field, as an empty map would.
	Args any `json:"args,omitempty"`
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

// WriteChromeTrace renders r's device-level spans fused with message-level
// timeline events and message-flow arrows as Chrome trace_event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. Each simulated
// node is a trace "process"; each track within a node ("bus", "nic",
// "rank3", ...) is a "thread". Spans become complete ("X") events;
// timeline events become thread-scoped instants ("i") on the owning rank's
// track. nodeOf maps a world rank to its node index (needed because the
// timeline records ranks, not nodes); pass nil when events is empty. Each
// Flow becomes a flow-start ("s") event on its source lane and a
// flow-finish ("f", bind point "e") event on its destination lane, so the
// viewer draws a causal arrow from send to delivery; r and flows may be
// nil. Spans are read from the packed log and encoded as they are reached,
// so the export holds no copy of the run. Output is deterministic: tids are
// assigned by sorted (node, track) order and encoding/json sorts arg keys.
func WriteChromeTrace(w io.Writer, r *Registry, events []trace.Event, nodeOf func(rank int) int, flows []Flow) error {
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
	var spanned []bool // lane-table entries with at least one kept span
	if r != nil {
		spanned = make([]bool, len(r.lanes))
		r.spans.Each(func(l uint32, _, _, _ int64) { spanned[l] = true })
		for i, ok := range spanned {
			if ok {
				note(lane{r.lanes[i].Node, r.lanes[i].Track})
			}
		}
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

	// The document is {"traceEvents":[...],"displayTimeUnit":"ns"} as
	// encoding/json writes it, a null array when there is no event.
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":`)
	// Events encode through one reused buffer; Encode writes what
	// json.Marshal returns, plus a newline that is dropped.
	n := 0
	var fail error
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	emit := func(ev *chromeEvent) {
		if fail != nil {
			return
		}
		buf.Reset()
		if fail = enc.Encode(ev); fail != nil {
			return
		}
		if n == 0 {
			bw.WriteByte('[')
		} else {
			bw.WriteByte(',')
		}
		n++
		bw.Write(buf.Bytes()[:buf.Len()-1])
	}
	for tid, l := range order {
		lanes[l] = tid
		pname := fmt.Sprintf("node%d", l.node)
		if l.node == FabricNode {
			pname = "fabric"
		}
		emit(&chromeEvent{Name: "process_name", Ph: "M", Pid: l.node, Tid: tid,
			Args: map[string]any{"name": pname}})
		emit(&chromeEvent{Name: "thread_name", Ph: "M", Pid: l.node, Tid: tid,
			Args: map[string]any{"name": l.track}})
		emit(&chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: l.node, Tid: tid,
			Args: map[string]any{"sort_index": tid}})
	}
	tids := make([]int, len(spanned))
	for i, ok := range spanned {
		if ok {
			tids[i] = lanes[lane{r.lanes[i].Node, r.lanes[i].Track}]
		}
	}
	if r != nil {
		// One record, duration and args serve every span: emit encodes each
		// span before the next one overwrites them. The args are written
		// by hand, as encoding/json would write a one-key map.
		var ev chromeEvent
		var dur float64
		var args json.RawMessage
		r.spans.Each(func(l uint32, start, end, size int64) {
			s := &r.lanes[l]
			dur = toMicros(units.Time(end - start))
			ev = chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: toMicros(units.Time(start)), Dur: &dur,
				Pid: s.Node, Tid: tids[l],
			}
			if size > 0 {
				args = append(strconv.AppendInt(append(args[:0], `{"bytes":`...), size, 10), '}')
				ev.Args = &args
			}
			emit(&ev)
		})
	}
	for _, e := range events {
		l := rankLane(e.Rank)
		args := map[string]any{"peer": e.Peer, "tag": e.Tag, "comm": e.Comm}
		if e.Size > 0 {
			args["bytes"] = e.Size
		}
		emit(&chromeEvent{
			Name: e.Kind.String(), Cat: "mpi-msg", Ph: "i",
			Ts: toMicros(e.At), Pid: l.node, Tid: lanes[l],
			S: "t", Args: args,
		})
	}
	for i := range flows {
		f := &flows[i]
		ev := chromeEvent{
			Name: f.Name, Cat: "msg-flow", Ph: "s",
			Ts: toMicros(f.Start), Pid: f.SrcNode,
			Tid: lanes[lane{f.SrcNode, f.SrcTrack}],
			ID:  &f.ID,
		}
		if len(f.Args) > 0 {
			ev.Args = f.Args
		}
		emit(&ev)
		emit(&chromeEvent{
			Name: f.Name, Cat: "msg-flow", Ph: "f", Bp: "e",
			Ts: toMicros(f.End), Pid: f.DstNode,
			Tid: lanes[lane{f.DstNode, f.DstTrack}],
			ID:  &f.ID,
		})
	}
	if fail != nil {
		return fail
	}
	if n == 0 {
		bw.WriteString("null")
	} else {
		bw.WriteByte(']')
	}
	bw.WriteString(`,"displayTimeUnit":"ns"}` + "\n")
	return bw.Flush()
}
