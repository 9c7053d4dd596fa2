// Package units defines the time and size conventions used throughout
// mpinet.
//
// Simulated time is an integer number of picoseconds. Picosecond resolution
// keeps rate arithmetic (bytes / bandwidth) exact enough that no cumulative
// rounding shows up even in hour-long simulated runs, while int64 still
// spans over 100 simulated days.
//
// Sizes are bytes. Following the paper's convention, "MB" in reported
// bandwidth figures means 2^20 bytes.
package units

import "fmt"

// Time is a point in (or duration of) simulated time, in picoseconds.
type Time int64

// Duration constants.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Size constants (bytes). MB is 2^20 per the paper's convention.
const (
	Byte int64 = 1
	KB   int64 = 1 << 10
	MB   int64 = 1 << 20
	GB   int64 = 1 << 30
)

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts a floating-point second count to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// BytesPerSecond is a bandwidth. The zero value means "infinitely fast" and
// must not be used where a real rate is required; model code validates.
type BytesPerSecond float64

// MBps constructs a bandwidth from a figure in 2^20-byte megabytes/second
// (the paper's reporting unit).
func MBps(v float64) BytesPerSecond { return BytesPerSecond(v * float64(MB)) }

// TimeFor returns how long it takes to move n bytes at rate b.
func (b BytesPerSecond) TimeFor(n int64) Time {
	if b <= 0 {
		panic("units: TimeFor on non-positive bandwidth")
	}
	return Time(float64(n) / float64(b) * float64(Second))
}

// SizeString renders a byte count with binary units.
func SizeString(n int64) string {
	switch {
	case n < 0:
		return "-" + SizeString(-n)
	case n < KB:
		return fmt.Sprintf("%dB", n)
	case n < MB:
		if n%KB == 0 {
			return fmt.Sprintf("%dKB", n/KB)
		}
		return fmt.Sprintf("%.1fKB", float64(n)/float64(KB))
	case n < GB:
		if n%MB == 0 {
			return fmt.Sprintf("%dMB", n/MB)
		}
		return fmt.Sprintf("%.1fMB", float64(n)/float64(MB))
	default:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(GB))
	}
}
