package units

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Microsecond.Micros() != 1 {
		t.Errorf("Micros(1us) = %v", Microsecond.Micros())
	}
	if Second.Seconds() != 1 {
		t.Errorf("Seconds(1s) = %v", Second.Seconds())
	}
	if FromSeconds(0.001) != Millisecond {
		t.Errorf("FromSeconds(0.001) = %v", FromSeconds(0.001))
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.00ns"},
		{4600 * Nanosecond, "4.60us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
		{-2 * Second, "-2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBandwidth(t *testing.T) {
	if got := MBps(100).TimeFor(100 * MB); got != Second {
		t.Errorf("100MB @ 100MB/s = %v, want 1s", got)
	}
}

func TestTimeForPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BytesPerSecond(0).TimeFor(1)
}

func TestSizeString(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"}, {512, "512B"}, {KB, "1KB"}, {1536, "1.5KB"},
		{MB, "1MB"}, {256 * KB, "256KB"}, {3 * GB, "3.00GB"}, {-KB, "-1KB"},
	}
	for _, c := range cases {
		if got := SizeString(c.in); got != c.want {
			t.Errorf("SizeString(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: TimeFor is monotone in n and additive within rounding.
func TestTimeForMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		r := MBps(100)
		ta, tb := r.TimeFor(int64(a)), r.TimeFor(int64(b))
		if a <= b && ta > tb {
			return false
		}
		sum := r.TimeFor(int64(a) + int64(b))
		diff := sum - (ta + tb)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2 // picoseconds of rounding
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
