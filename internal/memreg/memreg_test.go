package memreg

import (
	"testing"
	"testing/quick"

	"mpinet/internal/units"
)

func TestAllocNonOverlapping(t *testing.T) {
	a := NewAddressSpace()
	b1 := a.Alloc(100)
	b2 := a.Alloc(5000)
	b3 := a.Alloc(0)
	if b1.End() > b2.Addr || b2.End() > b3.Addr {
		t.Fatalf("overlapping buffers: %v %v %v", b1, b2, b3)
	}
	if b1.Addr%PageSize != 0 || b2.Addr%PageSize != 0 {
		t.Fatalf("unaligned buffers: %v %v", b1, b2)
	}
}

func TestBufPages(t *testing.T) {
	cases := []struct {
		addr, size  int64
		first, want int64
	}{
		{0, 1, 0, 1},
		{0, PageSize, 0, 1},
		{0, PageSize + 1, 0, 2},
		{PageSize, 2 * PageSize, 1, 2},
		{100, PageSize, 0, 2}, // straddles
		{100, 0, 0, 0},
	}
	for _, c := range cases {
		first, n := Buf{Addr: c.addr, Size: c.size}.Pages()
		if first != c.first || n != c.want {
			t.Errorf("Pages(%d,%d) = (%d,%d), want (%d,%d)", c.addr, c.size, first, n, c.first, c.want)
		}
	}
}

func TestBufSliceBounds(t *testing.T) {
	b := Buf{Addr: 4096, Size: 100}
	s := b.Slice(10, 50)
	if s.Addr != 4106 || s.Size != 50 {
		t.Fatalf("Slice = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	b.Slice(60, 50)
}

func TestPinCacheHitFree(t *testing.T) {
	reg := CostModel{PerOp: 10 * units.Microsecond, PerPage: units.Microsecond}
	c := NewPinCache(reg, CostModel{}, 0)
	b := Buf{Addr: 0, Size: 4 * PageSize}
	t1 := c.Acquire(b)
	if want := 10*units.Microsecond + 4*units.Microsecond; t1 != want {
		t.Fatalf("first acquire cost %v, want %v", t1, want)
	}
	if t2 := c.Acquire(b); t2 != 0 {
		t.Fatalf("second acquire cost %v, want 0", t2)
	}
	if !resident(c, b) {
		t.Fatal("buffer not resident after acquire")
	}
	if c.Hits != 4 || c.Misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 4/4", c.Hits, c.Misses)
	}
}

// resident reports whether every page of b is currently registered.
func resident(c *PinCache, b Buf) bool {
	first, count := b.Pages()
	for p := first; p < first+count; p++ {
		if _, ok := c.resident[p]; !ok {
			return false
		}
	}
	return true
}

func TestPinCachePartialOverlap(t *testing.T) {
	reg := CostModel{PerOp: 10 * units.Microsecond, PerPage: units.Microsecond}
	c := NewPinCache(reg, CostModel{}, 0)
	c.Acquire(Buf{Addr: 0, Size: 2 * PageSize})
	// Pages 0-1 resident; acquiring 0-3 should only pay for 2 new pages.
	got := c.Acquire(Buf{Addr: 0, Size: 4 * PageSize})
	if want := 10*units.Microsecond + 2*units.Microsecond; got != want {
		t.Fatalf("partial acquire cost %v, want %v", got, want)
	}
}

func TestPinCacheLRUEviction(t *testing.T) {
	reg := CostModel{PerPage: units.Microsecond}
	dereg := CostModel{PerPage: units.Microsecond / 2}
	c := NewPinCache(reg, dereg, 4)
	b1 := Buf{Addr: 0, Size: 2 * PageSize}
	b2 := Buf{Addr: 2 * PageSize, Size: 2 * PageSize}
	b3 := Buf{Addr: 4 * PageSize, Size: 2 * PageSize}
	c.Acquire(b1)
	c.Acquire(b2)
	c.Acquire(b1) // refresh b1 so b2 is LRU
	c.Acquire(b3) // evicts b2's pages
	if !resident(c, b1) || !resident(c, b3) {
		t.Fatal("recently used buffers evicted")
	}
	if resident(c, b2) {
		t.Fatal("LRU buffer not evicted")
	}
	if c.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", c.Evictions)
	}
	if c.npages != 4 {
		t.Fatalf("resident pages = %d, want capacity 4", c.npages)
	}
}

func TestCostModelZeroPages(t *testing.T) {
	cm := CostModel{PerOp: units.Microsecond, PerPage: units.Microsecond}
	if cm.Cost(0) != 0 {
		t.Fatal("zero pages should cost nothing")
	}
}

// Property: cache never exceeds capacity; re-acquiring the last-used buffer
// is always free.
func TestPinCacheProperties(t *testing.T) {
	f := func(addrs []uint16, sizes []uint16) bool {
		c := NewPinCache(CostModel{PerPage: 1}, CostModel{}, 64)
		n := len(addrs)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			b := Buf{Addr: int64(addrs[i]) * PageSize, Size: int64(sizes[i]%16+1) * PageSize}
			c.Acquire(b)
			if c.npages > 64 {
				return false
			}
			if c.Acquire(b) != 0 { // immediate reuse must hit
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSpaceInUse(t *testing.T) {
	a := NewAddressSpace()
	a.Alloc(PageSize)
	a.Alloc(1)
	if got := a.next - 1<<20; got != 2*PageSize {
		t.Fatalf("address range in use = %d, want %d", got, 2*PageSize)
	}
}

// TestBufString pins the buffer rendering the diagnostics print.
func TestBufString(t *testing.T) {
	if got, want := (Buf{Addr: 0x2000, Size: 3 * PageSize}).String(), "[0x2000,+12KB)"; got != want {
		t.Fatalf("Buf.String = %q, want %q", got, want)
	}
}
