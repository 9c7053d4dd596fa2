package bus

import (
	"testing"

	"mpinet/internal/units"
)

// effective is the delivered bandwidth for back-to-back transfers of n
// bytes, in MB/s.
func effective(b *Bus, n int64) float64 {
	return float64(n) / b.occupancy(n).Seconds() / float64(units.MB)
}

func TestEffectiveBandwidthPCIX(t *testing.T) {
	b := New("pcix", PCIX64x133)
	eff := effective(b, 256*units.KB)
	// Delivered PCI-X bandwidth should land in the ~850-950 MB/s range the
	// paper's InfiniBand results imply.
	if eff < 850 || eff > 960 {
		t.Fatalf("PCI-X effective bandwidth = %.0f MB/s, want ~900", eff)
	}
	raw := float64(Params(PCIX64x133).Raw) / float64(units.MB)
	if eff >= raw {
		t.Fatalf("effective %.0f >= raw %.0f", eff, raw)
	}
}

func TestEffectiveBandwidthPCI(t *testing.T) {
	b := New("pci", PCI64x66)
	eff := effective(b, 256*units.KB)
	// Plain PCI should deliver ~380-420 MB/s: enough that Quadrics' 308 MB/s
	// MPI peak and InfiniBand-on-PCI's 378 MB/s peak are bus-credible.
	if eff < 370 || eff > 430 {
		t.Fatalf("PCI effective bandwidth = %.0f MB/s, want ~390", eff)
	}
}

func TestDMASerializesBothDirections(t *testing.T) {
	b := New("pcix", PCIX64x133)
	// Two simultaneous 1MB DMAs (one per direction) must serialize: the
	// second starts when the first ends.
	_, end1 := b.DMA(0, units.MB)
	start2, end2 := b.DMA(0, units.MB)
	if start2 != end1 {
		t.Fatalf("second DMA started at %v, want %v", start2, end1)
	}
	if end2 <= end1 {
		t.Fatalf("second DMA end %v not after first %v", end2, end1)
	}
}

func TestSmallDMABurstOverheadDominates(t *testing.T) {
	b := New("pcix", PCIX64x133)
	cfg := Params(PCIX64x133)
	_, end := b.DMA(0, 8)
	if end < cfg.PerBurst {
		t.Fatalf("8-byte DMA took %v, below one burst overhead %v", end, cfg.PerBurst)
	}
	// One burst of overhead only.
	if end > cfg.PerBurst+cfg.Raw.TimeFor(8)+1 {
		t.Fatalf("8-byte DMA took %v, want about %v", end, cfg.PerBurst+cfg.Raw.TimeFor(8))
	}
}

func TestKindString(t *testing.T) {
	if PCIX64x133.String() != "PCI-X 64/133" || PCI64x66.String() != "PCI 64/66" {
		t.Fatal("unexpected Kind strings")
	}
}

func TestPCIXFasterThanPCI(t *testing.T) {
	px := New("pcix", PCIX64x133)
	pc := New("pci", PCI64x66)
	for _, n := range []int64{4 * units.KB, 64 * units.KB, units.MB} {
		if effective(px, n) <= effective(pc, n) {
			t.Fatalf("PCI-X not faster than PCI at %d bytes", n)
		}
	}
}

func TestZeroByteDMAStillCostsABurst(t *testing.T) {
	b := New("x", PCIX64x133)
	_, end := b.DMA(0, 0)
	if end != Params(PCIX64x133).PerBurst {
		t.Fatalf("zero-byte DMA occupancy %v, want one burst overhead", end)
	}
}

func TestSendIsDMA(t *testing.T) {
	a := New("a", PCI64x66)
	b := New("b", PCI64x66)
	_, e1 := a.DMA(0, 4096)
	_, e2 := b.Send(0, 4096)
	if e1 != e2 {
		t.Fatalf("Send (%v) and DMA (%v) disagree", e2, e1)
	}
}

func TestAccessors(t *testing.T) {
	b := New("mybus", PCIX64x133)
	b.DMA(0, 100)
	if b.Name() != "mybus" || b.Jobs() != 1 || b.BusyTime() <= 0 {
		t.Fatal("accessor values wrong")
	}
}

func TestUnknownKindPanics(t *testing.T) {
	if Kind(99).String() != "unknown-bus" {
		t.Fatal("unknown kind string")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Params on unknown kind did not panic")
		}
	}()
	Params(Kind(99))
}
