// Package memreg models process address spaces and the memory-registration
// machinery of user-level networking.
//
// InfiniBand (VAPI) and Myrinet (GM) require communication buffers to be
// registered (pinned + translated) before the NIC may DMA them; MPI
// implementations amortize this with a pin-down cache that registers on
// first use and deregisters lazily. Quadrics (Elan3) needs no explicit
// registration, but its NIC-resident MMU must hold translations for the
// pages it touches, and synchronizing the MMU table costs host time on first
// touch. Both mechanisms make performance sensitive to the application's
// buffer-reuse pattern — the effect behind Figures 7 and 8 of the paper.
package memreg

import (
	"fmt"

	"mpinet/internal/units"
)

// PageSize is the host page size (bytes); both registration and MMU costs
// are per-page.
const PageSize int64 = 4096

// Buf identifies a contiguous region of a process's virtual address space.
// Simulated payloads carry no bytes — identity (address) and extent are what
// the models need.
type Buf struct {
	Addr int64
	Size int64
}

// End returns the first address past the buffer.
func (b Buf) End() int64 { return b.Addr + b.Size }

// Slice returns the sub-buffer [off, off+size).
func (b Buf) Slice(off, size int64) Buf {
	if off < 0 || size < 0 || off+size > b.Size {
		panic(fmt.Sprintf("memreg: slice [%d,%d) out of buffer of size %d", off, off+size, b.Size))
	}
	return Buf{Addr: b.Addr + off, Size: size}
}

// Pages returns the page numbers spanned by the buffer.
func (b Buf) Pages() (first, count int64) {
	if b.Size == 0 {
		return b.Addr / PageSize, 0
	}
	first = b.Addr / PageSize
	last := (b.End() - 1) / PageSize
	return first, last - first + 1
}

// String implements fmt.Stringer.
func (b Buf) String() string {
	return fmt.Sprintf("[0x%x,+%s)", b.Addr, units.SizeString(b.Size))
}

// AddressSpace is a bump allocator handing out non-overlapping buffers, page
// aligned. One per simulated process.
type AddressSpace struct {
	next int64
}

// NewAddressSpace returns an allocator starting at a non-zero base so that
// a zero Buf is recognizably "no buffer".
func NewAddressSpace() *AddressSpace { return &AddressSpace{next: 1 << 20} }

// Alloc returns a fresh page-aligned buffer of the given size.
func (a *AddressSpace) Alloc(size int64) Buf {
	if size < 0 {
		panic("memreg: negative allocation")
	}
	addr := a.next
	span := (size + PageSize - 1) / PageSize * PageSize
	if span == 0 {
		span = PageSize
	}
	a.next += span
	return Buf{Addr: addr, Size: size}
}

// CostModel gives the host-time price of mapping pages into NIC-visible
// state: a fixed per-operation cost plus a per-page cost.
type CostModel struct {
	PerOp   units.Time
	PerPage units.Time
}

// Cost returns the price of an operation covering n pages.
func (c CostModel) Cost(pages int64) units.Time {
	if pages == 0 {
		return 0
	}
	return c.PerOp + units.Time(pages)*c.PerPage
}

// PinCache models a registration (pin-down) cache: a set of registered page
// ranges with LRU eviction by page count. Acquire returns the host time
// spent registering whatever part of the buffer was not already resident.
//
// The same structure models the Elan NIC MMU: "registration" is then the
// host's MMU-table synchronization.
type PinCache struct {
	reg      CostModel
	dereg    CostModel
	capacity int64 // max resident pages; 0 = unlimited
	resident map[int64]*pageNode
	lruHead  *pageNode // most recent
	lruTail  *pageNode // least recent
	npages   int64

	// Stats
	Hits, Misses int64
	Evictions    int64
	RegTime      units.Time
}

type pageNode struct {
	page       int64
	prev, next *pageNode
}

// NewPinCache returns a cache with the given registration/deregistration
// cost models and a capacity in pages (0 = unbounded).
func NewPinCache(reg, dereg CostModel, capacityPages int64) *PinCache {
	return &PinCache{
		reg:      reg,
		dereg:    dereg,
		capacity: capacityPages,
		resident: make(map[int64]*pageNode),
	}
}

// Acquire makes the buffer's pages NIC-visible and returns the host time the
// calling process must burn doing so. Pages already resident are free (a
// cache hit) and refreshed in the LRU order.
func (c *PinCache) Acquire(b Buf) units.Time {
	first, count := b.Pages()
	var missing int64
	for p := first; p < first+count; p++ {
		if n, ok := c.resident[p]; ok {
			c.touch(n)
			c.Hits++
			continue
		}
		c.Misses++
		missing++
		c.insert(p)
	}
	var t units.Time
	if missing > 0 {
		t += c.reg.Cost(missing)
	}
	// Evict over capacity (lazy deregistration): the evicted pages are
	// deregistered now, billed to the caller, as MVAPICH/MPICH-GM do when
	// the cache overflows.
	var evicted int64
	for c.capacity > 0 && c.npages > c.capacity {
		c.evictOldest()
		evicted++
	}
	if evicted > 0 {
		t += c.dereg.Cost(evicted)
	}
	c.RegTime += t
	return t
}

func (c *PinCache) insert(page int64) {
	n := &pageNode{page: page}
	c.resident[page] = n
	c.pushFront(n)
	c.npages++
}

func (c *PinCache) touch(n *pageNode) {
	c.unlink(n)
	c.pushFront(n)
}

func (c *PinCache) evictOldest() {
	n := c.lruTail
	if n == nil {
		return
	}
	c.unlink(n)
	delete(c.resident, n.page)
	c.npages--
	c.Evictions++
}

func (c *PinCache) pushFront(n *pageNode) {
	n.prev = nil
	n.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = n
	}
	c.lruHead = n
	if c.lruTail == nil {
		c.lruTail = n
	}
}

func (c *PinCache) unlink(n *pageNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
}
