package mpi

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/units"
)

// reqAllocTotal sums pool misses across every rank in the world.
func reqAllocTotal(w *World) int {
	total := 0
	for _, ps := range w.procs {
		total += ps.reqAllocs
	}
	return total
}

// TestRequestPoolZeroAllocSteadyState pins the request free list: blocking
// point-to-point traffic recycles its Request records, so the number of pool
// misses is a function of peak concurrency, not of how long the job runs.
// Doubling the round count must not add a single allocation.
func TestRequestPoolZeroAllocSteadyState(t *testing.T) {
	run := func(rounds int) int {
		const procs = 8
		w := MustWorld(Config{Net: cluster.IBA().New(procs), Procs: procs})
		err := w.Run(func(r *Rank) {
			buf := r.Malloc(4 * units.KB)
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() - 1 + r.Size()) % r.Size()
			for i := 0; i < rounds; i++ {
				r.Sendrecv(buf, next, i, buf, prev, i)
			}
		})
		if err != nil {
			t.Fatalf("%d rounds: %v", rounds, err)
		}
		return reqAllocTotal(w)
	}
	small, large := run(4), run(32)
	if small == 0 {
		t.Fatal("no pool misses at all: the counter is not wired")
	}
	if large != small {
		t.Errorf("request pool leaks: %d misses at 4 rounds, %d at 32 — misses must not scale with rounds", small, large)
	}
}

// TestRequestPoolZeroAllocNonBlocking gates the user's requests: the Wait
// that completes an Isend or Irecv frees it, so a nonblocking ring's pool
// misses, too, are set by how many requests are in flight at once, not by
// how many rounds the job runs.
func TestRequestPoolZeroAllocNonBlocking(t *testing.T) {
	run := func(rounds int) int {
		const procs = 8
		w := MustWorld(Config{Net: cluster.IBA().New(procs), Procs: procs})
		err := w.Run(func(r *Rank) {
			out, in := r.Malloc(4*units.KB), r.Malloc(4*units.KB)
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() - 1 + r.Size()) % r.Size()
			for i := 0; i < rounds; i++ {
				rr := r.Irecv(in, prev, i)
				r.Waitall(r.Isend(out, next, i), rr)
			}
		})
		if err != nil {
			t.Fatalf("%d rounds: %v", rounds, err)
		}
		return reqAllocTotal(w)
	}
	small, large := run(4), run(32)
	if small == 0 {
		t.Fatal("no pool misses at all: the counter is not wired")
	}
	if large != small {
		t.Errorf("user requests leak from the pool: %d misses at 4 rounds, %d at 32 — misses must not scale with rounds", small, large)
	}
}

// TestRequestPoolZeroAllocScaleMode repeats the gate on a 32-rank fat
// tree, the multi-stage fabric of the thousand-rank worlds.
func TestRequestPoolZeroAllocScaleMode(t *testing.T) {
	run := func(rounds int) int {
		const procs = 32
		p := cluster.IBA().With(cluster.FatTree(24, 2))
		w := MustWorld(Config{Net: p.New(procs), Procs: procs})
		err := w.Run(func(r *Rank) {
			buf := r.Malloc(512)
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() - 1 + r.Size()) % r.Size()
			for i := 0; i < rounds; i++ {
				r.Sendrecv(buf, next, i, buf, prev, i)
			}
		})
		if err != nil {
			t.Fatalf("%d rounds: %v", rounds, err)
		}
		return reqAllocTotal(w)
	}
	small, large := run(4), run(32)
	if small == 0 {
		t.Fatal("no pool misses at all: the counter is not wired")
	}
	if large != small {
		t.Errorf("fat-tree request pool leaks: %d misses at 4 rounds, %d at 32", small, large)
	}
}
