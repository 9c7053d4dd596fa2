package report

// blame.go renders the message-tracing layer's critical-path analysis
// (msgtrace.Blame) in two forms: a machine-readable JSON document with a
// fixed field order and integer-picosecond times, and an aligned text
// summary in the style of the other report tables. Both are deterministic:
// identical runs produce byte-identical output at any -j.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mpinet/internal/msgtrace"
	"mpinet/internal/units"
)

// BlameCatJSON is one category's share of a decomposition. Times are
// integer picoseconds (the simulator's native unit) so the JSON carries no
// float rounding.
type BlameCatJSON struct {
	Category string `json:"category"`
	Ps       int64  `json:"ps"`
}

// BlameMsgJSON is one message's envelope and per-category decomposition.
// The categories sum exactly to e2e_ps.
type BlameMsgJSON struct {
	ID    uint64         `json:"id"`
	Src   int32          `json:"src"`
	Dst   int32          `json:"dst"`
	Tag   int32          `json:"tag"`
	Bytes int64          `json:"bytes"`
	Kind  string         `json:"kind"`
	Start int64          `json:"start_ps"`
	End   int64          `json:"end_ps"`
	E2E   int64          `json:"e2e_ps"`
	Cats  []BlameCatJSON `json:"categories"`
}

// BlameFailureJSON names the frozen failure of an aborted run.
type BlameFailureJSON struct {
	Why   string `json:"why"`
	At    int64  `json:"at_ps"`
	Rank  int    `json:"rank"`
	Stage string `json:"stage"`
	MsgID uint64 `json:"msg_id"`
}

// BlameJSON is the machine-readable blame report.
type BlameJSON struct {
	Messages  int `json:"messages"`
	Completed int `json:"completed"`
	Spans     int `json:"spans"`
	// DroppedSpans and DroppedMsgs appear only when the trace caps
	// discarded records.
	DroppedSpans int64             `json:"dropped_spans,omitempty"`
	DroppedMsgs  int64             `json:"dropped_msgs,omitempty"`
	Total        int64             `json:"total_ps"`
	Cats         []BlameCatJSON    `json:"categories"`
	Slowest      []BlameMsgJSON    `json:"slowest"`
	Critical     []BlameMsgJSON    `json:"critical_path"`
	Failure      *BlameFailureJSON `json:"failure,omitempty"`
}

func blameCats(cats [msgtrace.NumCategories]units.Time) []BlameCatJSON {
	out := make([]BlameCatJSON, 0, msgtrace.NumCategories)
	for c := msgtrace.Category(0); c < msgtrace.NumCategories; c++ {
		out = append(out, BlameCatJSON{Category: c.String(), Ps: int64(cats[c])})
	}
	return out
}

func blameMsg(m msgtrace.MsgBlame) BlameMsgJSON {
	return BlameMsgJSON{
		ID: uint64(m.ID), Src: m.Src, Dst: m.Dst, Tag: m.Tag,
		Bytes: m.Bytes, Kind: m.Kind.String(),
		Start: int64(m.Start), End: int64(m.End), E2E: int64(m.E2E()),
		Cats: blameCats(m.Cats),
	}
}

// BlameReport converts an analysis into its JSON form.
func BlameReport(b *msgtrace.Blame) BlameJSON {
	out := BlameJSON{
		Messages:     b.Messages,
		Completed:    b.Completed,
		Spans:        b.Spans,
		DroppedSpans: b.DroppedSpans,
		DroppedMsgs:  b.DroppedMsgs,
		Total:        int64(b.Total),
		Cats:         blameCats(b.Cats),
		Slowest:      make([]BlameMsgJSON, 0, len(b.TopK)),
		Critical:     make([]BlameMsgJSON, 0, len(b.Critical)),
	}
	for _, m := range b.TopK {
		out.Slowest = append(out.Slowest, blameMsg(m))
	}
	for _, m := range b.Critical {
		out.Critical = append(out.Critical, blameMsg(m))
	}
	if f := b.Failure; f != nil {
		out.Failure = &BlameFailureJSON{
			Why: f.Why, At: int64(f.At), Rank: f.Rank,
			Stage: f.Stage.String(), MsgID: uint64(f.MsgID),
		}
	}
	return out
}

// WriteBlameJSON writes the report as indented JSON. Field order is fixed
// by the structs, times are integer picoseconds, and slices come from
// deterministic analysis — identical runs produce byte-identical files.
func WriteBlameJSON(w io.Writer, b *msgtrace.Blame) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BlameReport(b))
}

// RenderBlame formats the analysis as an aligned text summary: the
// aggregate category split, the slowest messages, the critical path, and
// the failure (if the run froze the flight recorder).
func RenderBlame(b *msgtrace.Blame) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Blame report: %d messages traced, %d completed, %d spans\n",
		b.Messages, b.Completed, b.Spans)
	if b.DroppedSpans > 0 || b.DroppedMsgs > 0 {
		fmt.Fprintf(&sb, "  dropped over the trace caps: %d spans, %d messages\n",
			b.DroppedSpans, b.DroppedMsgs)
	}
	if f := b.Failure; f != nil {
		fmt.Fprintf(&sb, "  FAILURE at %v: %s\n", f.At, f.Why)
		fmt.Fprintf(&sb, "    blamed rank %d, stage %s", f.Rank, f.Stage)
		if f.MsgID != 0 {
			fmt.Fprintf(&sb, ", message %#x (rank %d seq %d)",
				uint64(f.MsgID), f.MsgID.Rank(), f.MsgID.Seq())
		}
		sb.WriteByte('\n')
	}
	if b.Completed == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "  end-to-end total %v across %d messages\n", b.Total, b.Completed)
	for c := msgtrace.Category(0); c < msgtrace.NumCategories; c++ {
		t := b.Cats[c]
		if t == 0 {
			continue
		}
		share := 100 * float64(t) / float64(b.Total)
		fmt.Fprintf(&sb, "    %-11s %12v  %5.1f%%\n", c, t, share)
	}
	if len(b.TopK) > 0 {
		fmt.Fprintf(&sb, "  slowest %d:\n", len(b.TopK))
		for i, m := range b.TopK {
			fmt.Fprintf(&sb, "    #%d %s\n", i+1, blameLine(m))
		}
	}
	if len(b.Critical) > 1 {
		fmt.Fprintf(&sb, "  critical path (%d links, last first):\n", len(b.Critical))
		for _, m := range b.Critical {
			fmt.Fprintf(&sb, "    %s\n", blameLine(m))
		}
	}
	return sb.String()
}

// blameLine is one message's one-line summary: envelope, end-to-end time,
// and its dominant categories.
func blameLine(m msgtrace.MsgBlame) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rank%d->rank%d %s %s e2e %v (",
		m.Src, m.Dst, m.Kind, units.SizeString(m.Bytes), m.E2E())
	first := true
	for c := msgtrace.Category(0); c < msgtrace.NumCategories; c++ {
		if m.Cats[c] == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%s %v", c, m.Cats[c])
	}
	sb.WriteByte(')')
	return sb.String()
}
