package microbench

import (
	"slices"

	"mpinet/internal/cluster"
	"mpinet/internal/mpi"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// collectiveTime measures the average per-operation time of a collective
// across all ranks (Pallas-style: buffers allocated once, a warmup
// operation, barrier synchronization, the slowest rank's average reported).
func collectiveTime(p cluster.Platform, procs int, iters int, setup func(r *mpi.Rank) func()) sim.Time {
	w := mpi.MustWorld(mpi.Config{Net: p.New(procs), Procs: procs})
	// One slot per rank, written only by that rank.
	avg := make([]sim.Time, procs)
	mustRun(w, func(r *mpi.Rank) {
		op := setup(r)
		op() // warmup
		r.Barrier()
		start := r.Wtime()
		for i := 0; i < iters; i++ {
			op()
		}
		avg[r.Rank()] = (r.Wtime() - start) / sim.Time(iters)
	})
	return slices.Max(avg)
}

// Alltoall reproduces Figure 11: MPI_Alltoall time (us) on procs nodes as a
// function of per-pair message size.
func Alltoall(p cluster.Platform, procs int, sizes []int64) Curve {
	c := Curve{Label: p.Name + " Alltoall"}
	for _, s := range sizes {
		t := collectiveTime(p, procs, 8, func(r *mpi.Rank) func() {
			send := r.Malloc(s * int64(procs))
			recv := r.Malloc(s * int64(procs))
			return func() { r.Alltoall(send, recv) }
		})
		c.X = append(c.X, s)
		c.Y = append(c.Y, t.Micros())
	}
	return c
}

// Allreduce reproduces Figure 12: MPI_Allreduce time (us) on procs nodes.
func Allreduce(p cluster.Platform, procs int, sizes []int64) Curve {
	c := Curve{Label: p.Name + " Allreduce"}
	for _, s := range sizes {
		t := collectiveTime(p, procs, 8, func(r *mpi.Rank) func() {
			buf := r.Malloc(s)
			return func() { r.Allreduce(buf) }
		})
		c.X = append(c.X, s)
		c.Y = append(c.Y, t.Micros())
	}
	return c
}

// MemoryUsage reproduces Figure 13: per-process MPI memory footprint (MB)
// of a barrier program as the node count grows.
func MemoryUsage(p cluster.Platform, nodeCounts []int) Curve {
	c := Curve{Label: p.Name}
	for _, n := range nodeCounts {
		w := mpi.MustWorld(mpi.Config{Net: p.New(n), Procs: n})
		mustRun(w, func(r *mpi.Rank) { r.Barrier() })
		c.X = append(c.X, int64(n))
		c.Y = append(c.Y, float64(w.MemoryUsage(0))/float64(units.MB))
	}
	return c
}
