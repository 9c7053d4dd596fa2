package mpinet

import (
	"errors"
	"strings"
	"testing"
)

func TestFacadeOptionsCompose(t *testing.T) {
	p := InfiniBand().With(PCIBus())
	if p.Name != "IBA-PCI" {
		t.Fatalf("With(PCIBus()) name = %q, want IBA-PCI", p.Name)
	}
	// Derivation must not mutate the base.
	if InfiniBand().Name != "IBA" {
		t.Fatal("With mutated the predefined platform")
	}
}

func TestFacadeNewWorldValidates(t *testing.T) {
	if _, err := NewWorld(WorldConfig{Procs: 2}); err == nil {
		t.Fatal("nil Net accepted")
	}
	if _, err := NewWorld(WorldConfig{Net: InfiniBand().New(2), Procs: 9}); err == nil {
		t.Fatal("overcommitted world accepted")
	}
}

func TestFacadeFaultyRunFailsTyped(t *testing.T) {
	faulty := Myrinet().With(WithFaults(DropPlan(3, 1.0)))
	w, err := NewWorld(WorldConfig{Net: faulty.New(2), Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		buf := r.Malloc(256)
		if r.Rank() == 0 {
			r.Send(buf, 1, 0)
		} else {
			r.Recv(buf, 0, 0)
		}
	})
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("total loss: err %v is not ErrRetryExhausted", err)
	}
	if !strings.Contains(err.Error(), "node0->node1") {
		t.Fatalf("err %q does not attribute the link", err)
	}
}

func TestFacadeFaultyRunCompletesSlower(t *testing.T) {
	elapsed := func(p Platform) Time {
		w, err := NewWorld(WorldConfig{Net: p.New(2), Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(1024)
			for i := 0; i < 64; i++ {
				if r.Rank() == 0 {
					r.Send(buf, 1, 0)
					r.Recv(buf, 1, 1)
				} else {
					r.Recv(buf, 0, 0)
					r.Send(buf, 0, 1)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	healthy := elapsed(Quadrics())
	faulty := elapsed(Quadrics().With(WithFaults(DropPlan(11, 0.05))))
	if faulty <= healthy {
		t.Fatalf("faulty run (%v) not slower than healthy (%v)", faulty, healthy)
	}
}

func TestFacadeTimeoutTyped(t *testing.T) {
	w, err := NewWorld(WorldConfig{Net: InfiniBand().New(2), Procs: 2, Timeout: Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			r.Recv(r.Malloc(64), 0, 0) // never satisfied
		}
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("starved recv: err %v is not ErrTimeout", err)
	}
}

func TestFacadeUnknownAppTyped(t *testing.T) {
	_, err := RunApp("nope", Myrinet(), ClassS, 8)
	if !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("err %v is not ErrUnknownApp", err)
	}
}
