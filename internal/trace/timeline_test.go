package trace

import (
	"bytes"
	"strings"
	"testing"

	"mpinet/internal/units"
)

func TestTimelineAddAndMax(t *testing.T) {
	tl := NewTimeline(3)
	for i := 0; i < 5; i++ {
		tl.Add(Event{At: units.Time(i), Rank: i, Kind: EvSendStart})
	}
	if ev := tl.Events(); len(ev) != 3 || ev[2].Rank != 2 || tl.events.Dropped() != 2 {
		t.Fatalf("events=%v dropped=%d, want the first 3 kept and 2 dropped", ev, tl.events.Dropped())
	}
	unbounded := &Timeline{}
	for i := 0; i < 100; i++ {
		unbounded.Add(Event{})
	}
	if len(unbounded.Events()) != 100 || unbounded.events.Dropped() != 0 {
		t.Fatal("unbounded timeline dropped events")
	}
}

func TestTimelineExactMaxBoundary(t *testing.T) {
	// Filling to exactly the cap drops nothing; the cap+1'th add is the
	// first dropped event.
	tl := NewTimeline(3)
	for i := 0; i < 3; i++ {
		tl.Add(Event{At: units.Time(i)})
	}
	if tl.events.Len() != 3 || tl.events.Dropped() != 0 {
		t.Fatalf("at the exact cap: events=%d dropped=%d", tl.events.Len(), tl.events.Dropped())
	}
	tl.Add(Event{At: 3})
	if tl.events.Len() != 3 || tl.events.Dropped() != 1 {
		t.Fatalf("past the cap: events=%d dropped=%d", tl.events.Len(), tl.events.Dropped())
	}
}

func TestTimelineRenderReportsDropCount(t *testing.T) {
	tl := NewTimeline(1)
	tl.Add(Event{})
	tl.Add(Event{})
	tl.Add(Event{})
	var b bytes.Buffer
	tl.Render(&b)
	if !strings.Contains(b.String(), "2 events dropped") {
		t.Fatalf("render must report the drop count:\n%s", b.String())
	}
}

func TestTimelineRender(t *testing.T) {
	tl := NewTimeline(2)
	tl.Add(Event{At: 1500 * units.Nanosecond, Rank: 0, Kind: EvSendStart, Peer: 1, Tag: 7, Size: 4096})
	tl.Add(Event{At: 9 * units.Microsecond, Rank: 1, Kind: EvRecvDone, Peer: -1, Tag: -10, Size: 4096})
	tl.Add(Event{}) // dropped
	var b bytes.Buffer
	tl.Render(&b)
	out := b.String()
	for _, want := range []string{"send-start", "recv-done", "4KB", "*", "internal", "truncated"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvSendStart, EvSendDone, EvRecvPost, EvArrive, EvRecvDone, EventKind(99)}
	want := []string{"send-start", "send-done", "recv-post", "arrive", "recv-done", "?"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

func TestTimelineStats(t *testing.T) {
	tl := &Timeline{}
	tl.Add(Event{At: 100, Rank: 1, Kind: EvRecvPost, Peer: 0, Tag: 5})
	tl.Add(Event{At: 150, Rank: 1, Kind: EvArrive, Peer: 0, Tag: 5})
	tl.Add(Event{At: 300, Rank: 1, Kind: EvRecvDone, Peer: 0, Tag: 5})
	tl.Add(Event{At: 400, Rank: 1, Kind: EvRecvPost, Peer: 0, Tag: 5})
	tl.Add(Event{At: 500, Rank: 1, Kind: EvRecvDone, Peer: 0, Tag: 5})
	counts, mean := tl.Stats()
	if counts[EvRecvPost] != 2 || counts[EvArrive] != 1 {
		t.Fatalf("counts: %v", counts)
	}
	if mean != 150 { // (200 + 100) / 2
		t.Fatalf("mean recv wait = %v, want 150", mean)
	}
}
