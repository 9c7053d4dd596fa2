package main

import (
	"time"

	"mpinet/internal/cluster"
	"mpinet/internal/mpi"
	"mpinet/internal/sim"
)

// probeMin is the least time each layer probe measures for.
const probeMin = 200 * time.Millisecond

// probe is one timed public call into a layer.
type probe struct {
	name string
	// batch runs one batch and returns how many calls it made and how long
	// its timed part took.
	batch func() (calls int, took time.Duration, err error)
}

// probes are the layer probes, each reported in ns per call.
func probes() []probe {
	ps := []probe{
		{"sim.call_ns", probeCall},
		{"sim.park_wake_ns", probeParkWake},
		{"sim.timer_arm_stop_ns", probeTimerArmStop},
	}
	for _, p := range cluster.OSU() {
		p := p
		ps = append(ps, probe{"mpi.pingpong_ns." + p.Name, func() (int, time.Duration, error) { return probePingPong(p) }})
	}
	return ps
}

// runProbe repeats batches until probeMin has been measured and returns
// the host time per call in ns.
func runProbe(p probe) (float64, error) {
	var calls int
	var took time.Duration
	for took < probeMin {
		n, d, err := p.batch()
		if err != nil {
			return 0, err
		}
		calls += n
		took += d
	}
	return float64(took.Nanoseconds()) / float64(calls), nil
}

// countHandler is a typed event target, the shape of every hot-path model
// object.
type countHandler struct{ n int64 }

func (h *countHandler) HandleEvent(a, _ int64) { h.n += a }

// probeCall schedules batches of typed events at interleaved deadlines and
// dispatches them: the engine's schedule plus dispatch cost per event.
func probeCall() (int, time.Duration, error) {
	const batch, batches = 1024, 64
	e := sim.New()
	h := &countHandler{}
	t0 := time.Now()
	for b := 0; b < batches; b++ {
		for i := 0; i < batch; i++ {
			e.Call(sim.Time((i*7919)%97), h, 1, 0)
		}
		if err := e.Run(); err != nil {
			return 0, 0, err
		}
	}
	return batch * batches, time.Since(t0), nil
}

// probeParkWake is one process sleeping repeatedly: each Sleep parks the
// process and its wake event resumes it.
func probeParkWake() (int, time.Duration, error) {
	const n = 1 << 15
	e := sim.New()
	e.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	t0 := time.Now()
	err := e.Run()
	return n, time.Since(t0), err
}

// probeTimerArmStop arms and stops one reusable timer over a non-trivial
// queue, the watchdog pattern of every MPI wait.
func probeTimerArmStop() (int, time.Duration, error) {
	const n = 1 << 16
	e := sim.New()
	for i := 0; i < 512; i++ {
		e.Call(sim.Time(1<<50+i), &countHandler{}, 0, 0)
	}
	tm := e.NewTimer(func() {})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tm.Arm(sim.Time(1 << 40))
		tm.Stop()
	}
	return n, time.Since(t0), nil
}

// probePingPong is a 2-rank, 4-byte Send/Recv ping-pong on p: host time per
// round trip through mpi, the NIC model, the fabric and the engine. World
// construction is not timed.
func probePingPong(p cluster.Platform) (int, time.Duration, error) {
	const n = 4096
	w, err := mpi.NewWorld(mpi.Config{Net: p.New(2), Procs: 2})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	err = w.Run(func(r *mpi.Rank) {
		buf := r.Malloc(4)
		peer := 1 - r.Rank()
		for i := 0; i < n; i++ {
			if r.Rank() == 0 {
				r.Send(buf, peer, 0)
				r.Recv(buf, peer, 0)
			} else {
				r.Recv(buf, peer, 0)
				r.Send(buf, peer, 0)
			}
		}
	})
	return n, time.Since(t0), err
}
