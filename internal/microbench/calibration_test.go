package microbench

// Calibration tests: each asserts one of the anchor measurements the paper
// states in its text (Section 3), within tolerance. These are the contract
// between the simulator and the paper — if a model change breaks a shape or
// an anchor, it fails here, not silently in a figure.

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/units"
)

// within asserts got ∈ [want*(1-tol), want*(1+tol)].
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.2f, want %.2f ±%.0f%%", name, got, want, tol*100)
	}
}

func TestFig1SmallMessageLatencyAnchors(t *testing.T) {
	// Paper: QSN ~4.6us, IBA ~6.8us, Myri ~6.7us.
	within(t, "IBA 4B latency", Latency(cluster.IBA(), []int64{4}).Y[0], 6.8, 0.10)
	within(t, "Myri 4B latency", Latency(cluster.Myri(), []int64{4}).Y[0], 6.7, 0.10)
	within(t, "QSN 4B latency", Latency(cluster.QSN(), []int64{4}).Y[0], 4.6, 0.10)
}

func TestFig1LargeMessageLatencyOrdering(t *testing.T) {
	// Paper: for large messages InfiniBand has a clear advantage because of
	// its higher bandwidth.
	iba := Latency(cluster.IBA(), []int64{16 * units.KB}).Y[0]
	myri := Latency(cluster.Myri(), []int64{16 * units.KB}).Y[0]
	qsn := Latency(cluster.QSN(), []int64{16 * units.KB}).Y[0]
	if !(iba < qsn && qsn < myri) {
		t.Errorf("16KB latency ordering: IBA %.1f, QSN %.1f, Myri %.1f; want IBA < QSN < Myri", iba, qsn, myri)
	}
}

func TestFig2PeakBandwidthAnchors(t *testing.T) {
	sizes := []int64{512 * units.KB}
	// Paper: IBA >841 MB/s, QSN ~308, Myri ~235 (window 16).
	within(t, "IBA peak bw", Bandwidth(cluster.IBA(), sizes, 16).Y[0], 841, 0.05)
	within(t, "Myri peak bw", Bandwidth(cluster.Myri(), sizes, 16).Y[0], 235, 0.05)
	within(t, "QSN peak bw", Bandwidth(cluster.QSN(), sizes, 16).Y[0], 308, 0.05)
}

func TestFig2BandwidthGrowsWithWindow(t *testing.T) {
	// Paper: IBA and Myri improve with window size; QSN similar below 16.
	for _, p := range cluster.OSU() {
		w4 := Bandwidth(p, []int64{4 * units.KB}, 4).Y[0]
		w16 := Bandwidth(p, []int64{4 * units.KB}, 16).Y[0]
		if w16 < w4 {
			t.Errorf("%s: bandwidth fell from window 4 (%.0f) to window 16 (%.0f)", p.Name, w4, w16)
		}
	}
}

func TestFig2IBAEagerRendezvousDip(t *testing.T) {
	// Paper: the IBA bandwidth drop at 2KB is the eager->rendezvous switch.
	c := Bandwidth(cluster.IBA(), []int64{2 * units.KB, 4 * units.KB}, 16)
	perByte2K := c.Y[0] / 2
	perByte4K := c.Y[1] / 4
	// The protocol switch shows as a dent: 4KB is not proportionally faster.
	if perByte4K > perByte2K*1.1 {
		t.Errorf("no rendezvous dent visible: 2K %.0f MB/s, 4K %.0f MB/s", c.Y[0], c.Y[1])
	}
}

func TestFig3HostOverheadAnchors(t *testing.T) {
	// Paper: Myri ~0.8us, IBA ~1.7us, QSN ~3.3us (sender+receiver).
	within(t, "IBA overhead", HostOverhead(cluster.IBA(), []int64{4}).Y[0], 1.7, 0.10)
	within(t, "Myri overhead", HostOverhead(cluster.Myri(), []int64{4}).Y[0], 0.8, 0.15)
	within(t, "QSN overhead", HostOverhead(cluster.QSN(), []int64{4}).Y[0], 3.3, 0.10)
}

func TestFig3QSNOverheadDipsPast256B(t *testing.T) {
	c := HostOverhead(cluster.QSN(), []int64{256, 512})
	if c.Y[1] >= c.Y[0] {
		t.Errorf("QSN overhead did not dip past 256B: %.2f -> %.2f", c.Y[0], c.Y[1])
	}
}

func TestFig4BiDirectionalLatency(t *testing.T) {
	// Paper: IBA barely degrades (6.8 -> 7.0); Myri and QSN degrade
	// substantially (6.7 -> 10.1, 4.6 -> 7.4).
	for _, tc := range []struct {
		p        cluster.Platform
		uniWant  float64
		maxDelta float64 // IBA must stay nearly flat
		minDelta float64 // Myri/QSN must visibly degrade
	}{
		{cluster.IBA(), 6.8, 0.5, 0},
		{cluster.Myri(), 6.7, 0, 0.8},
		{cluster.QSN(), 4.6, 0, 0.8},
	} {
		uni := Latency(tc.p, []int64{4}).Y[0]
		bi := BiLatency(tc.p, []int64{4}).Y[0]
		delta := bi - uni
		if tc.maxDelta > 0 && delta > tc.maxDelta {
			t.Errorf("%s: bi-directional latency degraded by %.2fus, want < %.2f", tc.p.Name, delta, tc.maxDelta)
		}
		if tc.minDelta > 0 && delta < tc.minDelta {
			t.Errorf("%s: bi-directional latency degraded by only %.2fus, want > %.2f", tc.p.Name, delta, tc.minDelta)
		}
	}
}

func TestFig5BiDirectionalBandwidth(t *testing.T) {
	// Paper: IBA 841 -> ~900 (PCI-X bound); QSN 308 -> ~375 (PCI bound);
	// Myri 235 -> ~473 then below 340 past 256KB (SRAM staging).
	within(t, "IBA bi-bw", BiBandwidth(cluster.IBA(), []int64{256 * units.KB}).Y[0], 900, 0.06)
	within(t, "QSN bi-bw", BiBandwidth(cluster.QSN(), []int64{256 * units.KB}).Y[0], 375, 0.05)
	myri := BiBandwidth(cluster.Myri(), []int64{64 * units.KB, 512 * units.KB})
	within(t, "Myri bi-bw 64K", myri.Y[0], 473, 0.05)
	if myri.Y[1] >= 340 {
		t.Errorf("Myri bi-bw past 256KB = %.0f, want < 340 (SRAM staging collapse)", myri.Y[1])
	}
}

func TestFig6OverlapShapes(t *testing.T) {
	// Paper: IBA/Myri overlap drops at their rendezvous point and stays
	// constant; QSN overlap grows steadily with message size.
	qsn := Overlap(cluster.QSN(), []int64{4 * units.KB, 64 * units.KB})
	if qsn.Y[1] <= qsn.Y[0]*2 {
		t.Errorf("QSN overlap not growing: %.1f -> %.1f", qsn.Y[0], qsn.Y[1])
	}
	iba := Overlap(cluster.IBA(), []int64{1024, 64 * units.KB})
	// Past rendezvous, host-driven handshakes cap IBA's overlap near a
	// constant far below the QSN value at the same size.
	if iba.Y[1] > qsn.Y[1]/4 {
		t.Errorf("IBA 64KB overlap %.1f not clearly capped vs QSN %.1f", iba.Y[1], qsn.Y[1])
	}
	myri := Overlap(cluster.Myri(), []int64{32 * units.KB, 64 * units.KB})
	if myri.Y[1] > qsn.Y[1]/4 {
		t.Errorf("Myri 64KB overlap %.1f not clearly capped vs QSN %.1f", myri.Y[1], qsn.Y[1])
	}
}

func TestFig7BufferReuseLatency(t *testing.T) {
	// Paper: all three are sensitive; IBA hurt above its zero-copy
	// threshold, QSN hurt at every size, Myri insensitive until 16KB.
	ibaSmall0 := ReuseLatency(cluster.IBA(), []int64{1024}, 0).Y[0]
	ibaSmall100 := ReuseLatency(cluster.IBA(), []int64{1024}, 100).Y[0]
	if ibaSmall0 > ibaSmall100*1.05 {
		t.Errorf("IBA 1KB (eager) affected by reuse: %.1f vs %.1f", ibaSmall0, ibaSmall100)
	}
	iba0 := ReuseLatency(cluster.IBA(), []int64{16 * units.KB}, 0).Y[0]
	iba100 := ReuseLatency(cluster.IBA(), []int64{16 * units.KB}, 100).Y[0]
	if iba0 < iba100*1.5 {
		t.Errorf("IBA 16KB reuse insensitive: %.1f vs %.1f", iba0, iba100)
	}
	qsn0 := ReuseLatency(cluster.QSN(), []int64{256}, 0).Y[0]
	qsn100 := ReuseLatency(cluster.QSN(), []int64{256}, 100).Y[0]
	if qsn0 < qsn100*1.4 {
		t.Errorf("QSN small-message reuse insensitive: %.1f vs %.1f", qsn0, qsn100)
	}
	myri0 := ReuseLatency(cluster.Myri(), []int64{8 * units.KB}, 0).Y[0]
	myri100 := ReuseLatency(cluster.Myri(), []int64{8 * units.KB}, 100).Y[0]
	if myri0 > myri100*1.05 {
		t.Errorf("Myri 8KB (eager) affected by reuse: %.1f vs %.1f", myri0, myri100)
	}
	myriBig0 := ReuseLatency(cluster.Myri(), []int64{64 * units.KB}, 0).Y[0]
	myriBig100 := ReuseLatency(cluster.Myri(), []int64{64 * units.KB}, 100).Y[0]
	if myriBig0 < myriBig100*1.1 {
		t.Errorf("Myri 64KB reuse insensitive: %.1f vs %.1f", myriBig0, myriBig100)
	}
}

func TestFig8BufferReuseBandwidth(t *testing.T) {
	// Bandwidth drops as reuse rate falls, for IBA (rendezvous sizes) and
	// QSN (all sizes).
	for _, tc := range []struct {
		p    cluster.Platform
		size int64
	}{
		{cluster.IBA(), 64 * units.KB},
		{cluster.QSN(), 16 * units.KB},
	} {
		full := ReuseBandwidth(tc.p, []int64{tc.size}, 100).Y[0]
		none := ReuseBandwidth(tc.p, []int64{tc.size}, 0).Y[0]
		half := ReuseBandwidth(tc.p, []int64{tc.size}, 50).Y[0]
		if none >= full*0.8 {
			t.Errorf("%s: 0%% reuse bw %.0f not clearly below 100%% reuse %.0f", tc.p.Name, none, full)
		}
		if !(none <= half && half <= full) {
			t.Errorf("%s: reuse bw not monotone: 0%%=%.0f 50%%=%.0f 100%%=%.0f", tc.p.Name, none, half, full)
		}
	}
}

func TestFig9IntraNodeLatency(t *testing.T) {
	// Paper: Myri ~1.3us, IBA ~1.6us via shared memory; QSN intra-node is
	// *worse* than its inter-node latency.
	within(t, "Myri intra latency", IntraLatency(cluster.Myri(), []int64{4}).Y[0], 1.3, 0.15)
	within(t, "IBA intra latency", IntraLatency(cluster.IBA(), []int64{4}).Y[0], 1.6, 0.15)
	qsnIntra := IntraLatency(cluster.QSN(), []int64{4}).Y[0]
	qsnInter := Latency(cluster.QSN(), []int64{4}).Y[0]
	if qsnIntra <= qsnInter {
		t.Errorf("QSN intra %.2f should exceed inter %.2f", qsnIntra, qsnInter)
	}
}

func TestFig10IntraNodeBandwidth(t *testing.T) {
	// Paper: IBA switches to NIC loopback at 16KB and sustains >450 MB/s for
	// large messages, clearly above Myri/QSN there; Myri/QSN drop for large
	// messages (cache thrash / NIC loopback).
	iba := IntraBandwidth(cluster.IBA(), []int64{units.MB}).Y[0]
	if iba < 420 {
		t.Errorf("IBA large intra bw = %.0f, want >420", iba)
	}
	myri := IntraBandwidth(cluster.Myri(), []int64{64 * units.KB, units.MB})
	if myri.Y[1] >= myri.Y[0]*0.5 {
		t.Errorf("Myri intra bw no cache-thrash drop: %.0f -> %.0f", myri.Y[0], myri.Y[1])
	}
	qsn := IntraBandwidth(cluster.QSN(), []int64{units.MB}).Y[0]
	if qsn >= iba {
		t.Errorf("QSN intra bw %.0f should be below IBA %.0f", qsn, iba)
	}
}

func TestFig11AlltoallOrdering(t *testing.T) {
	// Paper (small messages, 8 nodes): IBA 31us < Myri 36us < QSN 67us.
	iba := Alltoall(cluster.IBA(), 8, []int64{4}).Y[0]
	myri := Alltoall(cluster.Myri(), 8, []int64{4}).Y[0]
	qsn := Alltoall(cluster.QSN(), 8, []int64{4}).Y[0]
	if !(iba < myri && myri < qsn) {
		t.Errorf("Alltoall ordering IBA %.1f < Myri %.1f < QSN %.1f violated", iba, myri, qsn)
	}
}

func TestFig12AllreduceOrdering(t *testing.T) {
	// Paper (small messages, 8 nodes): QSN 28us best, IBA 46us worst.
	iba := Allreduce(cluster.IBA(), 8, []int64{4}).Y[0]
	qsn := Allreduce(cluster.QSN(), 8, []int64{4}).Y[0]
	if qsn >= iba {
		t.Errorf("Allreduce: QSN %.1f should beat IBA %.1f", qsn, iba)
	}
	within(t, "QSN Allreduce 4B", qsn, 28, 0.15)
	within(t, "IBA Allreduce 4B", iba, 46, 0.15)
}

func TestFig13MemoryUsage(t *testing.T) {
	// Paper: IBA memory grows with node count (per-RC-connection buffers);
	// Myri and QSN stay flat.
	iba := MemoryUsage(cluster.IBA(), []int{2, 4, 8})
	if !(iba.Y[0] < iba.Y[1] && iba.Y[1] < iba.Y[2]) {
		t.Errorf("IBA memory not growing: %v", iba.Y)
	}
	within(t, "IBA memory at 8 nodes", iba.Y[2], 50, 0.15)
	for _, p := range []cluster.Platform{cluster.Myri(), cluster.QSN()} {
		c := MemoryUsage(p, []int{2, 8})
		if c.Y[0] != c.Y[1] {
			t.Errorf("%s memory not flat: %v", p.Name, c.Y)
		}
	}
}

func TestFig26PCILatencyPenalty(t *testing.T) {
	// Paper: small-message latency only increases by ~0.6us on PCI.
	pcix := Latency(cluster.IBA(), []int64{4}).Y[0]
	pci := Latency(cluster.IBA().With(cluster.PCIBus()), []int64{4}).Y[0]
	delta := pci - pcix
	if delta < 0.3 || delta > 1.2 {
		t.Errorf("PCI latency penalty = %.2fus, want ~0.6", delta)
	}
}

func TestFig27PCIBandwidthCap(t *testing.T) {
	// Paper: bandwidth only reaches ~378 MB/s on PCI.
	within(t, "IBA-PCI peak bw", Bandwidth(cluster.IBA().With(cluster.PCIBus()), []int64{512 * units.KB}, 16).Y[0], 378, 0.06)
}
