// Package trace is the simulation analogue of the MPICH logging interface
// the paper used for application profiling (extended, as the authors did, to
// record buffer-reuse patterns). One Profile per rank accumulates:
//
//   - the message-size distribution of MPI calls (Table 1),
//   - non-blocking call counts and average sizes (Table 3),
//   - buffer reuse rates, plain and byte-weighted (Table 4),
//   - collective call counts and volume share (Table 5),
//   - the intra-node share of point-to-point traffic (Table 6).
//
// A Timeline records a run's message-level events in a bounded reclog.Log:
// events past its cap are counted, and Render prints the count.
package trace

import "mpinet/internal/memreg"

// SizeClass buckets match Table 1 of the paper.
type SizeClass int

// Size classes.
const (
	Below2K SizeClass = iota // < 2 KB
	To16K                    // 2 KB – 16 KB
	To1M                     // 16 KB – 1 MB
	Above1M                  // > 1 MB
	NumSizeClasses
)

// String implements fmt.Stringer.
func (s SizeClass) String() string {
	switch s {
	case Below2K:
		return "<2K"
	case To16K:
		return "2K-16K"
	case To1M:
		return "16K-1M"
	case Above1M:
		return ">1M"
	default:
		return "?"
	}
}

// ClassOf buckets a byte count. All upper bounds are exclusive, matching
// Table 1's "2 KB–16 KB, 16 KB–1 MB" ranges: exactly 16 KB falls in the
// 16 KB–1 MB class and exactly 1 MB in the >1 MB class.
func ClassOf(size int64) SizeClass {
	switch {
	case size < 2*1024:
		return Below2K
	case size < 16*1024:
		return To16K
	case size < 1024*1024:
		return To1M
	default:
		return Above1M
	}
}

// Profile accumulates one rank's communication record.
type Profile struct {
	// Call counts.
	TotalCalls  int64
	SendCalls   int64
	RecvCalls   int64
	IsendCalls  int64
	IrecvCalls  int64
	IsendBytes  int64
	IrecvBytes  int64
	CollCalls   int64
	CollBytes   int64
	TotalBytes  int64
	SizeHist    [NumSizeClasses]int64
	CollByName  map[string]int64
	PtPCalls    int64
	PtPBytes    int64
	IntraCalls  int64
	IntraBytes  int64
	ReuseCalls  int64
	ReuseBytes  int64
	BufferCalls int64
	BufferBytes int64

	// seen holds every buffer used so far; recent the last few of them, a
	// ring probed before the map. Every point-to-point call notes its
	// buffer, and applications cycle through a handful, so most reuses hit
	// the ring and skip the map lookup.
	seen       map[memreg.Buf]struct{}
	recent     [4]memreg.Buf
	recentNext int
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{
		CollByName: make(map[string]int64),
		seen:       make(map[memreg.Buf]struct{}),
	}
}

// noteBuffer records a buffer use for the reuse statistics.
func (p *Profile) noteBuffer(b memreg.Buf) {
	if b.Size == 0 {
		return
	}
	p.BufferCalls++
	p.BufferBytes += b.Size
	for _, r := range p.recent {
		if r == b {
			p.ReuseCalls++
			p.ReuseBytes += b.Size
			return
		}
	}
	if _, ok := p.seen[b]; ok {
		p.ReuseCalls++
		p.ReuseBytes += b.Size
	} else {
		p.seen[b] = struct{}{}
	}
	p.recent[p.recentNext] = b
	p.recentNext = (p.recentNext + 1) % len(p.recent)
}

// Send records a blocking or non-blocking point-to-point send.
func (p *Profile) Send(b memreg.Buf, intraNode, nonblocking bool) {
	p.TotalCalls++
	p.PtPCalls++
	p.PtPBytes += b.Size
	p.TotalBytes += b.Size
	p.SizeHist[ClassOf(b.Size)]++
	if nonblocking {
		p.IsendCalls++
		p.IsendBytes += b.Size
	} else {
		p.SendCalls++
	}
	if intraNode {
		p.IntraCalls++
		p.IntraBytes += b.Size
	}
	p.noteBuffer(b)
}

// Recv records a blocking or non-blocking point-to-point receive. Receives
// count toward the call statistics and the size histogram — Table 1 of the
// paper counts both ends of each transfer — but byte-volume counters only
// accumulate on the send side so volumes are not double-counted.
func (p *Profile) Recv(b memreg.Buf, intraNode, nonblocking bool) {
	p.TotalCalls++
	p.PtPCalls++
	p.SizeHist[ClassOf(b.Size)]++
	if nonblocking {
		p.IrecvCalls++
		p.IrecvBytes += b.Size
	} else {
		p.RecvCalls++
	}
	if intraNode {
		p.IntraCalls++
	}
	p.noteBuffer(b)
}

// Collective records a collective call with this rank's buffer footprint.
func (p *Profile) Collective(name string, bytes int64, bufs ...memreg.Buf) {
	p.TotalCalls++
	p.CollCalls++
	p.CollBytes += bytes
	p.TotalBytes += bytes
	p.SizeHist[ClassOf(bytes)]++
	p.CollByName[name]++
	for _, b := range bufs {
		p.noteBuffer(b)
	}
}

// ReuseRate returns the fraction of buffer uses that hit a previously used
// buffer (Table 4, "% Reuse").
func (p *Profile) ReuseRate() float64 {
	if p.BufferCalls == 0 {
		return 0
	}
	return float64(p.ReuseCalls) / float64(p.BufferCalls)
}

// WeightedReuseRate returns the byte-weighted reuse rate (Table 4, "Wt %").
func (p *Profile) WeightedReuseRate() float64 {
	if p.BufferBytes == 0 {
		return 0
	}
	return float64(p.ReuseBytes) / float64(p.BufferBytes)
}

// CollectiveCallShare returns collective calls as a fraction of all MPI
// calls (Table 5, "% calls").
func (p *Profile) CollectiveCallShare() float64 {
	if p.TotalCalls == 0 {
		return 0
	}
	return float64(p.CollCalls) / float64(p.TotalCalls)
}

// CollectiveVolumeShare returns collective bytes as a fraction of all
// communicated bytes (Table 5, "% Volume").
func (p *Profile) CollectiveVolumeShare() float64 {
	if p.TotalBytes == 0 {
		return 0
	}
	return float64(p.CollBytes) / float64(p.TotalBytes)
}

// IntraNodeCallShare returns the intra-node share of point-to-point calls
// (Table 6).
func (p *Profile) IntraNodeCallShare() float64 {
	if p.PtPCalls == 0 {
		return 0
	}
	return float64(p.IntraCalls) / float64(p.PtPCalls)
}

// IntraNodeVolumeShare returns the intra-node share of point-to-point bytes
// (Table 6).
func (p *Profile) IntraNodeVolumeShare() float64 {
	if p.PtPBytes == 0 {
		return 0
	}
	return float64(p.IntraBytes) / float64(p.PtPBytes)
}

// AvgIsendSize returns the average non-blocking send size (Table 3).
func (p *Profile) AvgIsendSize() int64 {
	if p.IsendCalls == 0 {
		return 0
	}
	return p.IsendBytes / p.IsendCalls
}

// AvgIrecvSize returns the average non-blocking receive size (Table 3).
func (p *Profile) AvgIrecvSize() int64 {
	if p.IrecvCalls == 0 {
		return 0
	}
	return p.IrecvBytes / p.IrecvCalls
}

// Merge folds other into p (for cluster-wide aggregates).
func (p *Profile) Merge(other *Profile) {
	p.TotalCalls += other.TotalCalls
	p.SendCalls += other.SendCalls
	p.RecvCalls += other.RecvCalls
	p.IsendCalls += other.IsendCalls
	p.IrecvCalls += other.IrecvCalls
	p.IsendBytes += other.IsendBytes
	p.IrecvBytes += other.IrecvBytes
	p.CollCalls += other.CollCalls
	p.CollBytes += other.CollBytes
	p.TotalBytes += other.TotalBytes
	p.PtPCalls += other.PtPCalls
	p.PtPBytes += other.PtPBytes
	p.IntraCalls += other.IntraCalls
	p.IntraBytes += other.IntraBytes
	p.ReuseCalls += other.ReuseCalls
	p.ReuseBytes += other.ReuseBytes
	p.BufferCalls += other.BufferCalls
	p.BufferBytes += other.BufferBytes
	for i := range p.SizeHist {
		p.SizeHist[i] += other.SizeHist[i]
	}
	for k, v := range other.CollByName {
		p.CollByName[k] += v
	}
}
