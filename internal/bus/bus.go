// Package bus models the host I/O bus (PCI 64/66 and PCI-X 64/133) that
// connects NICs to host memory.
//
// Both generations are shared, half-duplex buses: DMA reads and writes in
// both directions serialize on the same wires. This single fact produces two
// of the paper's headline observations without further tuning — InfiniBand's
// bi-directional bandwidth saturating near 900 MB/s on PCI-X (Figure 5), and
// Quadrics' uni-directional bandwidth being bus-bound at ~308 MB/s on plain
// PCI (Figure 2).
//
// A transfer is billed as a sequence of burst transactions, each paying an
// arbitration/addressing overhead before moving data at the bus's raw rate.
// Burst overhead is what separates theoretical bandwidth (1024 MB/s PCI-X,
// 512 MB/s PCI) from delivered bandwidth.
package bus

import (
	"mpinet/internal/metrics"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Kind selects a bus generation.
type Kind int

const (
	// PCIX64x133 is 64-bit 133 MHz PCI-X: 1064 MB/s raw.
	PCIX64x133 Kind = iota
	// PCI64x66 is 64-bit 66 MHz PCI: 532 MB/s raw.
	PCI64x66
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case PCIX64x133:
		return "PCI-X 64/133"
	case PCI64x66:
		return "PCI 64/66"
	default:
		return "unknown-bus"
	}
}

// Config holds the physical parameters of a bus generation.
type Config struct {
	Raw      units.BytesPerSecond // wire data rate during a burst
	Burst    int64                // bytes moved per transaction
	PerBurst sim.Time             // arbitration + address phase per transaction
}

// Params returns the calibrated configuration for a bus kind.
//
// Per-burst overheads are calibrated so delivered DMA bandwidth lands where
// the paper measured it: PCI-X sustains ~900 MB/s of the 1024 theoretical
// (InfiniBand bi-directional ceiling), PCI sustains ~390 MB/s of 512
// (Quadrics' bus budget: 308 MB/s uni-directional MPI on top of it, 375
// bi-directional).
func Params(k Kind) Config {
	switch k {
	case PCIX64x133:
		return Config{
			Raw:      units.BytesPerSecond(8 * 133e6), // 64-bit @ 133MHz
			Burst:    2048,
			PerBurst: 260 * units.Nanosecond,
		}
	case PCI64x66:
		return Config{
			Raw:      units.BytesPerSecond(8 * 66e6), // 64-bit @ 66MHz
			Burst:    512,
			PerBurst: 330 * units.Nanosecond,
		}
	default:
		panic("bus: unknown kind")
	}
}

// Bus is one host's I/O bus instance: a single FIFO station shared by every
// DMA in either direction.
type Bus struct {
	cfg   Config
	st    *sim.Station
	bytes int64 // cumulative DMA payload
}

// New returns a bus of the given kind for one host.
func New(name string, k Kind) *Bus {
	return &Bus{cfg: Params(k), st: sim.NewStation(name)}
}

// occupancy returns the bus time consumed by a DMA of n bytes.
func (b *Bus) occupancy(n int64) sim.Time {
	if n <= 0 {
		return b.cfg.PerBurst
	}
	bursts := (n + b.cfg.Burst - 1) / b.cfg.Burst
	return sim.Time(bursts)*b.cfg.PerBurst + b.cfg.Raw.TimeFor(n)
}

// DMA submits a transfer of n bytes at time now and returns its occupancy
// interval. Both directions share the bus, so callers need not distinguish
// read from write.
func (b *Bus) DMA(now sim.Time, n int64) (start, end sim.Time) {
	if n > 0 {
		b.bytes += n
	}
	b.st.NoteSize(n)
	return b.st.Use(now, b.occupancy(n))
}

// Send implements the fabric pipeline Stage interface: a DMA chunk.
func (b *Bus) Send(now sim.Time, n int64) (start, end sim.Time) {
	return b.DMA(now, n)
}

// BusyTime reports cumulative bus occupancy.
func (b *Bus) BusyTime() sim.Time { return b.st.BusyTime() }

// Jobs reports how many DMA transactions the bus has served.
func (b *Bus) Jobs() int64 { return b.st.Jobs() }

// Name returns the diagnostic name.
func (b *Bus) Name() string { return b.st.Name() }

// Instrument registers the bus as a metrics source under nodeN/bus/, and
// arms per-DMA span recording so bus activity shows up as a lane in the
// Chrome trace. The source is read at snapshot time; the DMA path cost is
// one nil check.
func (b *Bus) Instrument(m *metrics.Registry, node int) {
	if m == nil {
		return
	}
	m.AddSource(metrics.NodePrefix(node)+"bus/", b)
	b.st.RecordSpans(m, node, "dma", "bus")
}

// Report implements metrics.Source: the DMA count, byte volume, occupancy
// and contention time.
func (b *Bus) Report(e *metrics.Emitter) {
	e.Count("dma_ops", b.Jobs())
	e.Count("dma_bytes", b.bytes)
	e.Time("busy_time", b.BusyTime())
	e.Time("wait_time", b.st.WaitTime())
}
