// Package microbench implements the paper's extended MPI micro-benchmark
// suite (Section 3): latency, windowed bandwidth, host overhead,
// bi-directional latency and bandwidth, communication/computation overlap,
// buffer-reuse sensitivity, intra-node performance, collective latency and
// memory usage. Each benchmark runs an MPI program on a freshly wired
// simulated testbed and reports the same quantity, in the same unit, as the
// corresponding figure of the paper.
package microbench

import (
	"mpinet/internal/cluster"
	"mpinet/internal/mpi"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Curve is one line of a figure: Y[i] measured at X[i] (usually message
// sizes in bytes). The Y unit depends on the benchmark: microseconds for
// latency-like figures, MB/s (2^20) for bandwidth-like ones.
type Curve struct {
	Label string
	X     []int64
	Y     []float64
}

// Sizes1 is the small-message size sweep used by latency-like figures.
var Sizes1 = powers(4, 16*units.KB)

// Sizes2 is the full sweep used by bandwidth-like figures.
var Sizes2 = powers(4, units.MB)

// powers returns powers of two from lo to hi inclusive.
func powers(lo, hi int64) []int64 {
	var out []int64
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

// pingPongOneWay measures average one-way latency for one message size:
// a warmed-up ping-pong between ranks 0 and 1.
func pingPongOneWay(p cluster.Platform, nodes, procsPerNode int, size int64, iters int) sim.Time {
	w := mpi.MustWorld(mpi.Config{Net: p.New(nodes), Procs: 2, ProcsPerNode: procsPerNode})
	var rtt sim.Time
	mustRun(w, func(r *mpi.Rank) {
		buf := r.Malloc(size)
		peer := 1 - r.Rank()
		// Warmup round to fill registration caches and connections.
		if r.Rank() == 0 {
			r.Send(buf, peer, 0)
			r.Recv(buf, peer, 1)
		} else {
			r.Recv(buf, peer, 0)
			r.Send(buf, peer, 1)
		}
		start := r.Wtime()
		for i := 0; i < iters; i++ {
			if r.Rank() == 0 {
				r.Send(buf, peer, 0)
				r.Recv(buf, peer, 1)
			} else {
				r.Recv(buf, peer, 0)
				r.Send(buf, peer, 1)
			}
		}
		if r.Rank() == 0 {
			rtt = (r.Wtime() - start) / sim.Time(iters)
		}
	})
	return rtt / 2
}

// Latency reproduces Figure 1: one-way MPI latency (us) across sizes.
func Latency(p cluster.Platform, sizes []int64) Curve {
	return LatencyIters(p, sizes, 16)
}

// LatencyIters is Latency with a caller-chosen iteration count. Fault
// studies need it: under a small packet-drop probability the retransmit
// penalty only shows up in the average once each (platform, size) point
// runs enough ping-pongs to see drops, so the fault figures sweep with
// hundreds of iterations instead of Latency's 16.
func LatencyIters(p cluster.Platform, sizes []int64, iters int) Curve {
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		c.X = append(c.X, s)
		c.Y = append(c.Y, pingPongOneWay(p, 2, 1, s, iters).Micros())
	}
	return c
}

// IntraLatency reproduces Figure 9: one-way latency between two ranks on
// one node.
func IntraLatency(p cluster.Platform, sizes []int64) Curve {
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		c.X = append(c.X, s)
		c.Y = append(c.Y, pingPongOneWay(p, 1, 2, s, 16).Micros())
	}
	return c
}

// bandwidthRun measures uni-directional streaming bandwidth (MB/s) with the
// paper's windowed protocol: the sender issues window non-blocking sends,
// waits for them, and repeats; the receiver mirrors with receives and
// returns a short ack each round.
func bandwidthRun(p cluster.Platform, nodes, procsPerNode int, size int64, window, rounds int) float64 {
	w := mpi.MustWorld(mpi.Config{Net: p.New(nodes), Procs: 2, ProcsPerNode: procsPerNode})
	var bw float64
	mustRun(w, func(r *mpi.Rank) {
		peer := 1 - r.Rank()
		msg := r.Malloc(size)
		ack := r.Malloc(4)
		reqs := make([]mpi.Request, window)
		// Warmup round.
		runRound := func(tag int) {
			if r.Rank() == 0 {
				for i := 0; i < window; i++ {
					reqs[i] = r.Isend(msg, peer, tag)
				}
				r.Waitall(reqs...)
				r.Recv(ack, peer, 99)
			} else {
				for i := 0; i < window; i++ {
					reqs[i] = r.Irecv(msg, peer, tag)
				}
				r.Waitall(reqs...)
				r.Send(ack, peer, 99)
			}
		}
		runRound(0)
		start := r.Wtime()
		for round := 0; round < rounds; round++ {
			runRound(1)
		}
		elapsed := r.Wtime() - start
		if r.Rank() == 0 {
			total := float64(size) * float64(window) * float64(rounds)
			bw = total / elapsed.Seconds() / float64(units.MB)
		}
	})
	return bw
}

// Bandwidth reproduces Figure 2 (one window size): uni-directional MPI
// bandwidth in MB/s.
func Bandwidth(p cluster.Platform, sizes []int64, window int) Curve {
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		rounds := roundsFor(s, window)
		c.X = append(c.X, s)
		c.Y = append(c.Y, bandwidthRun(p, 2, 1, s, window, rounds))
	}
	return c
}

// IntraBandwidth reproduces Figure 10: bandwidth between two ranks on one
// node (window 16).
func IntraBandwidth(p cluster.Platform, sizes []int64) Curve {
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		c.X = append(c.X, s)
		c.Y = append(c.Y, func() float64 {
			w := mpi.MustWorld(mpi.Config{Net: p.New(1), Procs: 2, ProcsPerNode: 2})
			return biOrUniIntraBW(w, s, 16, roundsFor(s, 16))
		}())
	}
	return c
}

func biOrUniIntraBW(w *mpi.World, size int64, window, rounds int) float64 {
	var bw float64
	mustRun(w, func(r *mpi.Rank) {
		peer := 1 - r.Rank()
		msg := r.Malloc(size)
		ack := r.Malloc(4)
		reqs := make([]mpi.Request, window)
		runRound := func(tag int) {
			if r.Rank() == 0 {
				for i := 0; i < window; i++ {
					reqs[i] = r.Isend(msg, peer, tag)
				}
				r.Waitall(reqs...)
				r.Recv(ack, peer, 99)
			} else {
				for i := 0; i < window; i++ {
					reqs[i] = r.Irecv(msg, peer, tag)
				}
				r.Waitall(reqs...)
				r.Send(ack, peer, 99)
			}
		}
		runRound(0)
		start := r.Wtime()
		for round := 0; round < rounds; round++ {
			runRound(1)
		}
		if r.Rank() == 0 {
			total := float64(size) * float64(window) * float64(rounds)
			bw = total / (r.Wtime() - start).Seconds() / float64(units.MB)
		}
	})
	return bw
}

// roundsFor keeps simulated work bounded while measuring enough volume.
func roundsFor(size int64, window int) int {
	target := 8 * units.MB
	r := int(target / (size * int64(window)))
	if r < 2 {
		return 2
	}
	if r > 64 {
		return 64
	}
	return r
}

// HostOverhead reproduces Figure 3: host CPU time per message (sender +
// receiver side, us) during the latency test.
func HostOverhead(p cluster.Platform, sizes []int64) Curve {
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2})
		iters := 16
		var warm [2]sim.Time
		mustRun(w, func(r *mpi.Rank) {
			buf := r.Malloc(s)
			peer := 1 - r.Rank()
			round := func() {
				if r.Rank() == 0 {
					r.Send(buf, peer, 0)
					r.Recv(buf, peer, 1)
				} else {
					r.Recv(buf, peer, 0)
					r.Send(buf, peer, 1)
				}
			}
			round() // warmup: connection setup, first-touch registration
			warm[r.Rank()] = r.HostBusy()
			for i := 0; i < iters; i++ {
				round()
			}
		})
		// Steady-state host busy across both ranks, per one-way message.
		busy := w.HostBusy(0) + w.HostBusy(1) - warm[0] - warm[1]
		perMsg := busy / sim.Time(2*iters)
		c.X = append(c.X, s)
		c.Y = append(c.Y, perMsg.Micros())
	}
	return c
}

// BiLatency reproduces Figure 4: latency when both sides send
// simultaneously (us).
func BiLatency(p cluster.Platform, sizes []int64) Curve {
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2})
		iters := 16
		var lat sim.Time
		mustRun(w, func(r *mpi.Rank) {
			sbuf := r.Malloc(s)
			rbuf := r.Malloc(s)
			peer := 1 - r.Rank()
			exchange := func() {
				rr := r.Irecv(rbuf, peer, 0)
				sr := r.Isend(sbuf, peer, 0)
				r.Wait(sr)
				r.Wait(rr)
			}
			exchange()
			start := r.Wtime()
			for i := 0; i < iters; i++ {
				exchange()
			}
			if r.Rank() == 0 {
				lat = (r.Wtime() - start) / sim.Time(iters)
			}
		})
		c.X = append(c.X, s)
		c.Y = append(c.Y, lat.Micros())
	}
	return c
}

// BiBandwidth reproduces Figure 5: both directions streaming with window 16
// (sum of both directions, MB/s).
func BiBandwidth(p cluster.Platform, sizes []int64) Curve {
	const window = 16
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		rounds := roundsFor(s, window)
		w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2})
		var bw float64
		mustRun(w, func(r *mpi.Rank) {
			peer := 1 - r.Rank()
			sbuf := r.Malloc(s)
			rbuf := r.Malloc(s)
			sreqs := make([]mpi.Request, window)
			rreqs := make([]mpi.Request, window)
			runRound := func() {
				for i := 0; i < window; i++ {
					rreqs[i] = r.Irecv(rbuf, peer, 0)
				}
				for i := 0; i < window; i++ {
					sreqs[i] = r.Isend(sbuf, peer, 0)
				}
				r.Waitall(sreqs...)
				r.Waitall(rreqs...)
			}
			runRound()
			start := r.Wtime()
			for round := 0; round < rounds; round++ {
				runRound()
			}
			if r.Rank() == 0 {
				// Both directions moved size*window*rounds each.
				total := 2 * float64(s) * float64(window) * float64(rounds)
				bw = total / (r.Wtime() - start).Seconds() / float64(units.MB)
			}
		})
		c.X = append(c.X, s)
		c.Y = append(c.Y, bw)
	}
	return c
}

func mustRun(w *mpi.World, f func(*mpi.Rank)) {
	if err := w.Run(f); err != nil {
		panic(err)
	}
}
