package microbench

import (
	"mpinet/internal/cluster"
	"mpinet/internal/memreg"
	"mpinet/internal/mpi"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// overlapRTT measures the average round-trip of the overlap test at one
// message size with a given per-iteration compute insertion: both sides
// start a non-blocking receive and send, compute for c, then wait.
func overlapRTT(p cluster.Platform, size int64, compute sim.Time, iters int) sim.Time {
	w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2})
	var rtt sim.Time
	mustRun(w, func(r *mpi.Rank) {
		peer := 1 - r.Rank()
		sbuf := r.Malloc(size)
		rbuf := r.Malloc(size)
		step := func(c sim.Time) {
			rr := r.Irecv(rbuf, peer, 0)
			sr := r.Isend(sbuf, peer, 0)
			r.Compute(c)
			r.Wait(sr)
			r.Wait(rr)
		}
		step(0) // warmup
		start := r.Wtime()
		for i := 0; i < iters; i++ {
			step(compute)
		}
		if r.Rank() == 0 {
			rtt = (r.Wtime() - start) / sim.Time(iters)
		}
	})
	return rtt
}

// Overlap reproduces Figure 6: the longest computation (us) that can be
// inserted between starting non-blocking communication and waiting for it
// without increasing the measured latency. Found by bisection — the
// simulator is deterministic, so the threshold is sharp.
func Overlap(p cluster.Platform, sizes []int64) Curve {
	const iters = 8
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		base := overlapRTT(p, s, 0, iters)
		tolerance := base / 50 // "does not increase", with 2% slack
		lo := sim.Time(0)
		hi := base
		for overlapRTT(p, s, hi, iters) <= base+tolerance && hi < 100*units.Millisecond {
			hi *= 2
		}
		for hi-lo > 100*units.Nanosecond {
			mid := (lo + hi) / 2
			if overlapRTT(p, s, mid, iters) <= base+tolerance {
				lo = mid
			} else {
				hi = mid
			}
		}
		c.X = append(c.X, s)
		c.Y = append(c.Y, lo.Micros())
	}
	return c
}

// reusePattern reports whether iteration i uses the shared buffer under
// reuse percentage pct, spreading reused iterations evenly through the run.
func reusePattern(i, pct int) bool {
	if pct >= 100 {
		return true
	}
	if pct <= 0 {
		return false
	}
	// Evenly interleave: an iteration reuses when its position within each
	// 100-iteration stripe falls inside the reuse quota, spread by stride.
	return (i*pct)%100 < pct
}

// ReuseLatency reproduces Figure 7: ping-pong latency (us) when only pct%
// of iterations reuse their buffer and the rest use fresh ones, defeating
// the registration/MMU caches.
func ReuseLatency(p cluster.Platform, sizes []int64, pct int) Curve {
	const iters = 50
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2})
		var lat sim.Time
		mustRun(w, func(r *mpi.Rank) {
			peer := 1 - r.Rank()
			reused := r.Malloc(s)
			pick := func(i int) memreg.Buf {
				if reusePattern(i, pct) {
					return reused
				}
				return r.Malloc(s)
			}
			// Warmup with the reused buffer.
			if r.Rank() == 0 {
				r.Send(reused, peer, 0)
				r.Recv(reused, peer, 1)
			} else {
				r.Recv(reused, peer, 0)
				r.Send(reused, peer, 1)
			}
			start := r.Wtime()
			for i := 0; i < iters; i++ {
				buf := pick(i)
				if r.Rank() == 0 {
					r.Send(buf, peer, 0)
					r.Recv(buf, peer, 1)
				} else {
					r.Recv(buf, peer, 0)
					r.Send(buf, peer, 1)
				}
			}
			if r.Rank() == 0 {
				lat = (r.Wtime() - start) / sim.Time(2*iters)
			}
		})
		c.X = append(c.X, s)
		c.Y = append(c.Y, lat.Micros())
	}
	return c
}

// ReuseBandwidth reproduces Figure 8: windowed streaming bandwidth (MB/s,
// window 16) under the same buffer-reuse regimes.
func ReuseBandwidth(p cluster.Platform, sizes []int64, pct int) Curve {
	const window = 16
	c := Curve{Label: p.Name}
	for _, s := range sizes {
		rounds := roundsFor(s, window)
		w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2})
		var bw float64
		mustRun(w, func(r *mpi.Rank) {
			peer := 1 - r.Rank()
			reused := r.Malloc(s)
			ack := r.Malloc(4)
			reqs := make([]mpi.Request, window)
			iter := 0
			pick := func() memreg.Buf {
				b := reused
				if !reusePattern(iter, pct) {
					b = r.Malloc(s)
				}
				iter++
				return b
			}
			runRound := func() {
				if r.Rank() == 0 {
					for i := 0; i < window; i++ {
						reqs[i] = r.Isend(pick(), peer, 0)
					}
					r.Waitall(reqs...)
					r.Recv(ack, peer, 99)
				} else {
					for i := 0; i < window; i++ {
						reqs[i] = r.Irecv(pick(), peer, 0)
					}
					r.Waitall(reqs...)
					r.Send(ack, peer, 99)
				}
			}
			runRound()
			start := r.Wtime()
			for round := 0; round < rounds; round++ {
				runRound()
			}
			if r.Rank() == 0 {
				total := float64(s) * float64(window) * float64(rounds)
				bw = total / (r.Wtime() - start).Seconds() / float64(units.MB)
			}
		})
		c.X = append(c.X, s)
		c.Y = append(c.Y, bw)
	}
	return c
}
