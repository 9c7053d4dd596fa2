package trace

import (
	"fmt"
	"io"

	"mpinet/internal/reclog"
	"mpinet/internal/units"
)

// EventKind classifies a timeline event.
type EventKind int

// Timeline event kinds, in the order a message usually produces them.
const (
	EvSendStart EventKind = iota // send initiated (eager issue or RTS)
	EvSendDone                   // send buffer released / rendezvous done
	EvRecvPost                   // receive posted
	EvArrive                     // envelope/payload arrived at the receiver
	EvRecvDone                   // receive completed
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSendStart:
		return "send-start"
	case EvSendDone:
		return "send-done"
	case EvRecvPost:
		return "recv-post"
	case EvArrive:
		return "arrive"
	case EvRecvDone:
		return "recv-done"
	default:
		return "?"
	}
}

// Event is one timeline record. Peer is the remote world rank (or -1 for
// wildcards), Comm the communicator context.
type Event struct {
	At   units.Time
	Rank int
	Kind EventKind
	Peer int
	Tag  int
	Comm int
	Size int64
}

// Timeline collects message-level events from an MPI run — the simulation
// analogue of an MPE/jumpshot log. The zero value keeps every event;
// NewTimeline caps it, after which collection stops (the run itself is
// unaffected) and Render reports how many events were dropped.
type Timeline struct {
	events reclog.Log[Event]
}

// NewTimeline returns a timeline keeping the first max events (max <= 0
// keeps every event).
func NewTimeline(max int) *Timeline {
	return &Timeline{events: reclog.New[Event](max)}
}

// Add records an event, or counts it as dropped past the cap.
func (t *Timeline) Add(e Event) { t.events.Append(e) }

// Events returns a fresh copy of the recorded events in order.
func (t *Timeline) Events() []Event { return t.events.Slice() }

// Render writes the timeline as an aligned chronological listing.
func (t *Timeline) Render(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-6s %-11s %-6s %-7s %-5s %s\n",
		"time", "rank", "event", "peer", "tag", "comm", "size")
	for i := 0; i < t.events.Len(); i++ {
		e := t.events.At(i)
		peer := fmt.Sprint(e.Peer)
		if e.Peer < 0 {
			peer = "*"
		}
		tag := fmt.Sprint(e.Tag)
		if e.Tag < 0 {
			tag = "internal"
		}
		fmt.Fprintf(w, "%-14s %-6d %-11s %-6s %-7s %-5d %s\n",
			e.At.String(), e.Rank, e.Kind.String(), peer, tag, e.Comm,
			units.SizeString(e.Size))
	}
	if d := t.events.Dropped(); d > 0 {
		fmt.Fprintf(w, "... (truncated: %d events dropped)\n", d)
	}
}

// Stats summarizes the timeline: event counts per kind and the mean
// post-to-completion receive time.
func (t *Timeline) Stats() (counts map[EventKind]int, meanRecvWait units.Time) {
	counts = make(map[EventKind]int)
	type key struct{ rank, peer, tag, comm int }
	posts := make(map[key][]units.Time)
	var total units.Time
	var n int64
	for i := 0; i < t.events.Len(); i++ {
		e := t.events.At(i)
		counts[e.Kind]++
		k := key{e.Rank, e.Peer, e.Tag, e.Comm}
		switch e.Kind {
		case EvRecvPost:
			posts[k] = append(posts[k], e.At)
		case EvRecvDone:
			if q := posts[k]; len(q) > 0 {
				total += e.At - q[0]
				posts[k] = q[1:]
				n++
			}
		}
	}
	if n > 0 {
		meanRecvWait = total / units.Time(n)
	}
	return counts, meanRecvWait
}
