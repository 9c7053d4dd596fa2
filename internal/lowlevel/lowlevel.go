// Package lowlevel benchmarks the vendor messaging layers directly —
// VAPI, GM and Elan3lib, below MPI — the way the authors' companion study
// ("Micro-benchmark level performance comparison of high-speed cluster
// interconnects", Hot Interconnects 11) does. It drives dev.Endpoint
// operations with raw engine events, so no MPI protocol, matching or
// progress cost appears in the numbers. Comparing these against the
// MPI-level suite isolates what each MPI implementation adds on top of its
// substrate.
package lowlevel

import (
	"mpinet/internal/cluster"
	"mpinet/internal/dev"
	"mpinet/internal/memreg"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Result is one low-level measurement.
type Result struct {
	Net   string
	Size  int64
	Value float64 // unit depends on the benchmark
}

// twoNodes wires a fresh two-node network and returns its endpoints.
func twoNodes(p cluster.Platform) (dev.Network, dev.Endpoint, dev.Endpoint) {
	net := p.New(2)
	return net, net.NewEndpoint(0), net.NewEndpoint(1)
}

// landed is the completion of a measured operation: it runs f on
// delivery and raises a failure, which a measurement without a fault plan
// cannot survive.
func landed(f func()) func(error) {
	return func(err error) {
		if err != nil {
			panic(err)
		}
		f()
	}
}

// Latency measures raw one-way delivery time of an eager message at the
// messaging layer: injection to remote-memory landing, no hosts involved.
func Latency(p cluster.Platform, size int64) sim.Time {
	net, ep0, ep1 := twoNodes(p)
	eng := net.Engine()
	const iters = 16
	var done sim.Time
	var bounce func(n int)
	bounce = func(n int) {
		if n == 2*iters {
			done = eng.Now()
			return
		}
		ep := ep0
		dst := 1
		if n%2 == 1 {
			ep = ep1
			dst = 0
		}
		ep.Eager(dst, size, 0, landed(func() { bounce(n + 1) }))
	}
	eng.Schedule(0, func() { bounce(0) })
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return done / (2 * iters)
}

// Bandwidth measures raw streaming bandwidth (MB/s) of the bulk (RDMA /
// directed-send / Elan DMA) path with the given number of in-flight
// transfers.
func Bandwidth(p cluster.Platform, size int64, inflight int) float64 {
	net, ep0, _ := twoNodes(p)
	eng := net.Engine()
	const messages = 32
	var completed int
	var last sim.Time
	var issue func()
	outstanding := 0
	issued := 0
	issue = func() {
		for outstanding < inflight && issued < messages {
			issued++
			outstanding++
			ep0.Bulk(1, size, 0, landed(func() {
				outstanding--
				completed++
				last = eng.Now()
				issue()
			}))
		}
	}
	eng.Schedule(0, issue)
	if err := eng.Run(); err != nil {
		panic(err)
	}
	if completed != messages {
		panic("lowlevel: transfers lost")
	}
	total := float64(size) * float64(messages)
	return total / last.Seconds() / float64(units.MB)
}

// RegistrationCost measures the host cost of making a cold buffer of the
// given page count NIC-visible (registration for VAPI/GM, MMU sync for
// Elan).
func RegistrationCost(p cluster.Platform, pages int64) sim.Time {
	net, ep0, _ := twoNodes(p)
	_ = net
	as := memreg.NewAddressSpace()
	buf := as.Alloc(pages * memreg.PageSize)
	return ep0.AcquireBuf(buf)
}

// HostOverheads reports the raw per-message host costs the device model
// charges (send side, receive side) for a message of the given size.
func HostOverheads(p cluster.Platform, size int64) (send, recv sim.Time) {
	_, ep0, _ := twoNodes(p)
	return ep0.SendOverhead(size), ep0.RecvOverhead(size)
}
