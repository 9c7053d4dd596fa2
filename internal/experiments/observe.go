package experiments

import (
	"fmt"
	"strings"

	"mpinet/internal/cluster"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
	"mpinet/internal/trace"
)

// PlatformByName resolves the paper's interconnect names, case-insensitive:
// "IBA", "Myri" or "QSN". Used by the commands' observability flags.
func PlatformByName(name string) (cluster.Platform, error) {
	switch strings.ToLower(name) {
	case "iba":
		return cluster.IBA(), nil
	case "myri":
		return cluster.Myri(), nil
	case "qsn":
		return cluster.QSN(), nil
	default:
		return cluster.Platform{}, fmt.Errorf("unknown interconnect %q (want IBA, Myri or QSN)", name)
	}
}

// observeNodes/observePPN size the observability demo: 8 ranks over 4 SMP
// nodes, so every channel — shared memory, NIC, switch — carries traffic.
const (
	observeNodes = 4
	observePPN   = 2
)

// ObserveTraced runs the observability demo workload on platform p with the
// full metrics registry and a message timeline attached, and returns the
// finished world. The workload is a deliberate mix:
//
//   - same-node ping-pong (shared-memory channel),
//   - cross-node ping-pong at 1 KB / 4 KB / 64 KB / 1 MB, each size once
//     from a fresh buffer and once reusing it (pin-down cache miss, then
//     hit, on GM-style devices),
//   - a barrier and an all-to-all (fans traffic across every fabric link).
//
// Everything downstream — snapshot rendering, Chrome-trace export, the
// acceptance tests — reads the returned world. One message in `every` per
// sender rank is span-traced through every layer (every <= 0 leaves
// tracing off, so only the always-on flight ring records). Sampling is a
// pure function of message IDs, so the recorder's contents — and
// everything derived from them — are deterministic at any -j.
func ObserveTraced(p cluster.Platform, every int) (*mpi.World, error) {
	cfg := mpi.Config{
		Net:          p.New(observeNodes),
		Procs:        observeNodes * observePPN,
		ProcsPerNode: observePPN,
		Metrics:      metrics.New(),
		Timeline:     trace.NewTimeline(1 << 16),
	}
	if every > 0 {
		cfg.MsgTrace = msgtrace.New(every)
	}
	w := mpi.MustWorld(cfg)
	err := w.Run(func(r *Rank) { observeBody(r) })
	return w, err
}

// Rank aliases mpi.Rank so the workload body reads like an MPI program.
type Rank = mpi.Rank

func observeBody(r *Rank) {
	me, n := r.Rank(), r.Size()

	// Phase 1: same-node ping-pong between co-located pairs (block mapping
	// puts ranks 2k and 2k+1 on node k).
	small := r.Malloc(512)
	if me%2 == 0 {
		r.Send(small, me+1, 1)
		r.Recv(small, me+1, 2)
	} else {
		r.Recv(small, me-1, 1)
		r.Send(small, me-1, 2)
	}

	// Phase 2: cross-node ping-pong, eager through rendezvous sizes, each
	// size twice from the same buffer so registration caches see a miss
	// then a hit.
	peer := (me + n/2) % n
	for _, size := range []int64{1 << 10, 4 << 10, 64 << 10, 1 << 20} {
		buf := r.Malloc(size)
		for iter := 0; iter < 2; iter++ {
			if me < n/2 {
				r.Send(buf, peer, 3)
				r.Recv(buf, peer, 4)
			} else {
				r.Recv(buf, peer, 3)
				r.Send(buf, peer, 4)
			}
		}
	}

	// Phase 3: collectives across the whole fabric.
	r.Barrier()
	a2aSend := r.Malloc(int64(n) * 2048)
	a2aRecv := r.Malloc(int64(n) * 2048)
	r.Alltoall(a2aSend, a2aRecv)
	r.Barrier()
}
