package report

import (
	"bytes"
	"strings"
	"testing"

	"mpinet/internal/msgtrace"
)

// TestBlameDropsShownOnlyWhenNonZero: a report whose trace caps discarded
// records says so in both renderings; one that lost nothing carries no
// trace of the counters, so existing outputs stay byte-identical.
func TestBlameDropsShownOnlyWhenNonZero(t *testing.T) {
	for _, c := range []struct {
		b    msgtrace.Blame
		want bool
	}{
		{msgtrace.Blame{Messages: 1, Spans: 2}, false},
		{msgtrace.Blame{Messages: 1, Spans: 2, DroppedSpans: 3}, true},
		{msgtrace.Blame{Messages: 1, Spans: 2, DroppedMsgs: 4}, true},
	} {
		text := RenderBlame(&c.b)
		if got := strings.Contains(text, "dropped over the trace caps"); got != c.want {
			t.Errorf("%+v: text shows drops = %v, want %v:\n%s", c.b, got, c.want, text)
		}
		var buf bytes.Buffer
		if err := WriteBlameJSON(&buf, &c.b); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(buf.String(), "dropped_"); got != c.want {
			t.Errorf("%+v: JSON shows drops = %v, want %v:\n%s", c.b, got, c.want, buf.String())
		}
	}
}
