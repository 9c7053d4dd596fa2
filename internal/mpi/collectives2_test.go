package mpi

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestGatherCompletes(t *testing.T) {
	for _, procs := range []int{2, 3, 8} {
		w := MustWorld(Config{Net: cluster.IBA().New(8), Procs: procs})
		if err := w.Run(func(r *Rank) {
			block := int64(1024)
			var recv = r.Malloc(block * int64(r.Size()))
			send := r.Malloc(block)
			r.Gather(send, recv, procs-1) // non-zero root
		}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
	}
}

func TestScatterCompletes(t *testing.T) {
	w := MustWorld(Config{Net: cluster.Myri().New(8), Procs: 8})
	if err := w.Run(func(r *Rank) {
		block := int64(4096)
		send := r.Malloc(block * int64(r.Size()))
		recv := r.Malloc(block)
		r.Scatter(send, recv, 0)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherSynchronizesRootLast(t *testing.T) {
	// The root cannot leave the gather before the slowest contributor
	// entered it.
	w := MustWorld(Config{Net: cluster.QSN().New(4), Procs: 4})
	var slowest, rootExit sim.Time
	if err := w.Run(func(r *Rank) {
		d := units.Time(100*r.Rank()) * units.Microsecond
		r.Compute(d)
		if d > slowest {
			slowest = d
		}
		send := r.Malloc(2048)
		recv := r.Malloc(2048 * int64(r.Size()))
		r.Gather(send, recv, 0)
		if r.Rank() == 0 {
			rootExit = r.Wtime()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rootExit < slowest {
		t.Fatalf("root left gather at %v before slowest entry %v", rootExit, slowest)
	}
}

func TestReduceScatterCompletes(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(4), Procs: 4})
	if err := w.Run(func(r *Rank) {
		send := r.Malloc(16 * 1024)
		recv := r.Malloc(4 * 1024)
		r.ReduceScatter(send, recv)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeSeesEnvelopeWithoutConsuming(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.Malloc(512), 1, 42)
		} else {
			st := r.Probe(AnySource, AnyTag)
			if st.Source != 0 || st.Tag != 42 || st.Size != 512 {
				t.Errorf("probe status %+v", st)
			}
			// The message is still there for the actual receive.
			got := r.Recv(r.Malloc(512), 0, 42)
			if got.Size != 512 {
				t.Errorf("recv after probe: %+v", got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestIprobeNonBlocking(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			if _, ok := r.Iprobe(0, 7); ok {
				t.Error("Iprobe saw a message before any was sent")
			}
			r.Compute(100 * units.Microsecond)
			st, ok := r.Iprobe(0, 7)
			if !ok || st.Size != 64 {
				t.Errorf("Iprobe after arrival: ok=%v st=%+v", ok, st)
			}
			r.Recv(r.Malloc(64), 0, 7)
		} else {
			r.Send(r.Malloc(64), 1, 7)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherPanicsOnUnevenBuffer(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("uneven gather buffer did not panic")
		}
	}()
	_ = w.Run(func(r *Rank) {
		r.Gather(r.Malloc(10), r.Malloc(15), 0)
	})
}
