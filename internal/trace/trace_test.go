package trace

import (
	"testing"
	"testing/quick"

	"mpinet/internal/memreg"
)

func buf(addr, size int64) memreg.Buf { return memreg.Buf{Addr: addr, Size: size} }

func TestClassOfBoundaries(t *testing.T) {
	// All upper bounds are exclusive (Table 1's "2 KB–16 KB, 16 KB–1 MB"):
	// the exact boundary values 2K, 16K and 1M land in the higher class.
	cases := []struct {
		size int64
		want SizeClass
	}{
		{0, Below2K}, {2047, Below2K},
		{2048, To16K}, {16383, To16K},
		{16384, To1M}, {1<<20 - 1, To1M},
		{1 << 20, Above1M}, {1<<20 + 1, Above1M},
	}
	for _, c := range cases {
		if got := ClassOf(c.size); got != c.want {
			t.Errorf("ClassOf(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

func TestSizeClassString(t *testing.T) {
	for cls, want := range map[SizeClass]string{
		Below2K: "<2K", To16K: "2K-16K", To1M: "16K-1M", Above1M: ">1M", SizeClass(9): "?",
	} {
		if cls.String() != want {
			t.Errorf("%d.String() = %q, want %q", cls, cls.String(), want)
		}
	}
}

func TestSendRecvAccounting(t *testing.T) {
	p := New()
	p.Send(buf(0, 100), false, false)
	p.Send(buf(4096, 5000), true, true)
	p.Recv(buf(0, 100), false, false)
	p.Recv(buf(8192, 200000), true, true)
	if p.TotalCalls != 4 || p.PtPCalls != 4 {
		t.Fatalf("calls: total=%d ptp=%d", p.TotalCalls, p.PtPCalls)
	}
	// Both ends count in the size histogram (Table 1 semantics).
	if p.SizeHist[Below2K] != 2 || p.SizeHist[To16K] != 1 || p.SizeHist[To1M] != 1 {
		t.Fatalf("hist: %v", p.SizeHist)
	}
	// Bytes accumulate on the send side only.
	if p.PtPBytes != 5100 || p.TotalBytes != 5100 {
		t.Fatalf("bytes: ptp=%d total=%d", p.PtPBytes, p.TotalBytes)
	}
	if p.IsendCalls != 1 || p.IrecvCalls != 1 || p.SendCalls != 1 || p.RecvCalls != 1 {
		t.Fatal("blocking/non-blocking split wrong")
	}
	if p.IntraCalls != 2 {
		t.Fatalf("intra calls = %d", p.IntraCalls)
	}
}

func TestCollectiveAccounting(t *testing.T) {
	p := New()
	p.Collective("Allreduce", 4096, buf(0, 4096))
	p.Collective("Allreduce", 4096, buf(0, 4096))
	p.Collective("Alltoall", 2<<20, buf(8192, 2<<20))
	if p.CollCalls != 3 || p.CollByName["Allreduce"] != 2 {
		t.Fatalf("collective counts: %v", p.CollByName)
	}
	if p.CollectiveCallShare() != 1.0 || p.CollectiveVolumeShare() != 1.0 {
		t.Fatal("pure-collective profile should have share 1.0")
	}
	if p.SizeHist[To16K] != 2 || p.SizeHist[Above1M] != 1 {
		t.Fatalf("collective size classes: %v", p.SizeHist)
	}
}

func TestReuseRates(t *testing.T) {
	p := New()
	b1, b2 := buf(0, 1000), buf(4096, 3000)
	p.Send(b1, false, false) // first use
	p.Send(b1, false, false) // reuse
	p.Send(b2, false, false) // first use
	p.Send(b1, false, false) // reuse
	if got := p.ReuseRate(); got != 0.5 {
		t.Fatalf("reuse rate = %v, want 0.5", got)
	}
	// Weighted: reused bytes = 2000 of 6000.
	if got := p.WeightedReuseRate(); got < 0.33 || got > 0.34 {
		t.Fatalf("weighted reuse = %v, want ~1/3", got)
	}
}

func TestZeroSizeBuffersIgnoredForReuse(t *testing.T) {
	p := New()
	p.Send(buf(0, 0), false, false)
	p.Send(buf(0, 0), false, false)
	if p.BufferCalls != 0 {
		t.Fatal("zero-size buffers should not enter reuse stats")
	}
}

func TestAvgSizes(t *testing.T) {
	p := New()
	if p.AvgIsendSize() != 0 || p.AvgIrecvSize() != 0 {
		t.Fatal("empty profile averages should be 0")
	}
	p.Send(buf(0, 1000), false, true)
	p.Send(buf(4096, 3000), false, true)
	p.Recv(buf(0, 500), false, true)
	if p.AvgIsendSize() != 2000 || p.AvgIrecvSize() != 500 {
		t.Fatalf("averages: %d %d", p.AvgIsendSize(), p.AvgIrecvSize())
	}
}

func TestEmptyShares(t *testing.T) {
	p := New()
	if p.CollectiveCallShare() != 0 || p.CollectiveVolumeShare() != 0 ||
		p.IntraNodeCallShare() != 0 || p.IntraNodeVolumeShare() != 0 ||
		p.ReuseRate() != 0 || p.WeightedReuseRate() != 0 {
		t.Fatal("empty profile shares should be 0")
	}
}

func TestMergePreservesTotals(t *testing.T) {
	a, b := New(), New()
	a.Send(buf(0, 100), true, false)
	a.Collective("Bcast", 64, buf(4096, 64))
	b.Send(buf(0, 5000), false, true)
	b.Recv(buf(0, 5000), false, false)
	b.Collective("Bcast", 64, buf(4096, 64))

	m := New()
	m.Merge(a)
	m.Merge(b)
	if m.TotalCalls != a.TotalCalls+b.TotalCalls {
		t.Fatal("TotalCalls not additive")
	}
	if m.CollByName["Bcast"] != 2 {
		t.Fatal("CollByName not merged")
	}
	var histSum int64
	for _, v := range m.SizeHist {
		histSum += v
	}
	// 2 sends + 1 recv + 2 collectives (receives count in the histogram).
	if histSum != 5 {
		t.Fatalf("merged histogram sum = %d, want 5", histSum)
	}
}

func TestMergeCollByName(t *testing.T) {
	a, b, c := New(), New(), New()
	a.Collective("Bcast", 64, buf(0, 64))
	a.Collective("Allreduce", 128, buf(0, 128))
	b.Collective("Bcast", 64, buf(0, 64))
	b.Collective("Alltoall", 1<<20, buf(0, 1<<20))
	c.Collective("Allreduce", 128, buf(0, 128))

	m := New()
	for _, p := range []*Profile{a, b, c} {
		m.Merge(p)
	}
	want := map[string]int64{"Bcast": 2, "Allreduce": 2, "Alltoall": 1}
	if len(m.CollByName) != len(want) {
		t.Fatalf("merged CollByName = %v, want %v", m.CollByName, want)
	}
	for name, n := range want {
		if m.CollByName[name] != n {
			t.Errorf("CollByName[%q] = %d, want %d", name, m.CollByName[name], n)
		}
	}
	// Merging an empty profile must not disturb the maps.
	m.Merge(New())
	if m.CollByName["Bcast"] != 2 {
		t.Fatal("merge with empty profile corrupted CollByName")
	}
	if m.CollCalls != 5 || m.CollBytes != 64+128+64+1<<20+128 {
		t.Fatalf("collective totals: calls=%d bytes=%d", m.CollCalls, m.CollBytes)
	}
}

// Property: shares always stay within [0,1] regardless of call sequence.
func TestSharesBoundedProperty(t *testing.T) {
	f := func(ops []byte) bool {
		p := New()
		for i, op := range ops {
			b := buf(int64(i)*4096, int64(op)+1)
			switch op % 4 {
			case 0:
				p.Send(b, op%2 == 0, op%3 == 0)
			case 1:
				p.Recv(b, op%2 == 0, op%3 == 0)
			case 2:
				p.Collective("X", b.Size, b)
			case 3:
				p.Send(b, false, false)
			}
		}
		for _, v := range []float64{
			p.ReuseRate(), p.WeightedReuseRate(), p.CollectiveCallShare(),
			p.CollectiveVolumeShare(), p.IntraNodeCallShare(), p.IntraNodeVolumeShare(),
		} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRecentBufferRingMatchesMap: the recently-seen ring in front of the
// reuse map changes no count. Over an interleaved sequence — runs of one
// buffer, cycles wider than the ring, slices sharing an address — the
// profile's reuse statistics equal a plain map's.
func TestRecentBufferRingMatchesMap(t *testing.T) {
	var seq []memreg.Buf
	for i := 0; i < 2000; i++ {
		switch {
		case i%7 == 0:
			seq = append(seq, buf(0, 512)) // a hot buffer
		case i%5 == 0:
			seq = append(seq, buf(0, int64(256+i%3))) // same address, other sizes
		default:
			seq = append(seq, buf(int64(4096*(i*i%11)), 1024)) // an 11-buffer cycle
		}
	}
	p := New()
	seen := map[memreg.Buf]bool{}
	var reuseCalls, reuseBytes, bytes int64
	for i, b := range seq {
		if i%2 == 0 {
			p.Send(b, false, false)
		} else {
			p.Recv(b, false, true)
		}
		bytes += b.Size
		if seen[b] {
			reuseCalls++
			reuseBytes += b.Size
		}
		seen[b] = true
	}
	if p.BufferCalls != int64(len(seq)) || p.BufferBytes != bytes {
		t.Errorf("buffer counts = %d calls, %d B; want %d, %d", p.BufferCalls, p.BufferBytes, len(seq), bytes)
	}
	if p.ReuseCalls != reuseCalls || p.ReuseBytes != reuseBytes {
		t.Errorf("reuse counts = %d calls, %d B; a plain map counts %d, %d",
			p.ReuseCalls, p.ReuseBytes, reuseCalls, reuseBytes)
	}
}
