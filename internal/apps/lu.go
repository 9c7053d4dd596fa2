package apps

import (
	"mpinet/internal/memreg"
	"mpinet/internal/mpi"
	"mpinet/internal/sim"
)

// LU is the NAS LU-decomposition application benchmark: an SSOR solver that
// sweeps wavefronts of k-planes across a 2D process grid. Each plane moves
// two tiny boundary messages (the ~2 KB flood that makes LU the paper's
// most latency-bound workload, 100k+ point-to-point calls per rank), plus a
// pair of large non-blocking face exchanges per time step. Because almost
// all messages are small, the paper finds the three interconnects closest
// on LU.
func LU() *App {
	return &App{
		Name:     "LU",
		MinProcs: 2,
		cal: func(class Class) calibration {
			if class == ClassS {
				return calibration{workSeconds: 0.05}
			}
			// Table 2 anchors: 648.53 / 319.57 / 165.53 s.
			return calibration{workSeconds: 1293,
				shape: map[int]float64{2: 0.9929, 4: 0.9678, 8: 0.9824}}
		},
		run: runLU,
	}
}

func runLU(r *mpi.Rank, class Class, cal calibration) {
	lu := newLURank(r, class, cal)
	// Setup broadcasts (grid parameters, as the real code does).
	for i := 0; i < 8; i++ {
		r.Bcast(lu.small, 0)
	}
	for it := 0; it < lu.itmax; it++ {
		lu.lower()
		lu.upper()
		// exchange_3: large non-blocking face swaps with the east/west and
		// north/south neighbors (each exists only off the grid edge).
		lu.swap(lu.faceOut, lu.faceIn, lu.east, lu.west, 104)
		lu.swap(lu.faceNSOut, lu.faceNSIn, lu.south, lu.north, 106)
	}
	// Final residual norms.
	r.Allreduce(lu.small)
	r.Allreduce(lu.small)
}

// luRank is one rank's LU state. It lives on the heap, and the sweeps run
// as its methods: every rank's stack then holds a few words of LU frame
// under each MPI call instead of all of the solver's locals, and a
// thousand-rank world holds a thousand of those stacks.
type luRank struct {
	r        *mpi.Rank
	n        int64
	itmax    int
	perPlane sim.Time
	// north, south, west and east are the neighbour ranks, -1 off the
	// grid edge.
	north, south, west, east int

	// Wavefront boundary planes and exchange_3 faces.
	nsOut, nsIn, ewOut, ewIn             memreg.Buf
	faceOut, faceIn, faceNSOut, faceNSIn memreg.Buf
	small                                memreg.Buf
}

// newLURank lays out rank r's block and allocates its buffers. It stays
// out of line so that the state it returns escapes to the heap rather than
// sitting in runLU's frame.
//
//go:noinline
func newLURank(r *mpi.Rank, class Class, cal calibration) *luRank {
	p := r.Size()
	me := r.Rank()
	lu := &luRank{r: r, n: 102, itmax: 250, north: -1, south: -1, west: -1, east: -1}
	if class == ClassS {
		lu.n, lu.itmax = 12, 4
	}
	n := lu.n
	rows, cols := grid2(p)
	row := me / cols
	col := me % cols
	if row > 0 {
		lu.north = me - cols
	}
	if row < rows-1 {
		lu.south = me + cols
	}
	if col > 0 {
		lu.west = me - 1
	}
	if col < cols-1 {
		lu.east = me + 1
	}

	nxl := ceilDiv(n, int64(rows)) // x-extent of this rank's block
	nyl := ceilDiv(n, int64(cols)) // y-extent

	// Wavefront boundary planes: 5 doubles per boundary cell.
	nsMsg := 5 * nxl * 8 // crosses a row boundary
	ewMsg := 5 * nyl * 8 // crosses a column boundary
	lu.nsOut, lu.nsIn = r.Malloc(nsMsg), r.Malloc(nsMsg)
	lu.ewOut, lu.ewIn = r.Malloc(ewMsg), r.Malloc(ewMsg)
	// exchange_3 full-face buffers (the ~300 KB Irecvs of Table 3): three
	// boundary arrays of 5-vectors over a full y-z face east-west, plus the
	// matching x-z faces north-south.
	faceMsg := 15 * nyl * n * 8
	lu.faceOut, lu.faceIn = r.Malloc(faceMsg), r.Malloc(faceMsg)
	faceNSMsg := 7 * nxl * n * 8
	lu.faceNSOut, lu.faceNSIn = r.Malloc(faceNSMsg), r.Malloc(faceNSMsg)
	lu.small = r.Malloc(8)

	lu.perPlane = cal.perRankCompute(p) / sim.Time(lu.itmax*2*int(n))
	return lu
}

// lower is the lower-triangular sweep: the wavefront enters at the
// north-west corner; each k-plane receives upstream boundaries, computes,
// and forwards downstream. Blocking receives serialize ranks into the
// pipeline the paper (and the LU literature) describes.
func (lu *luRank) lower() {
	r := lu.r
	for k := int64(0); k < lu.n; k++ {
		if lu.north >= 0 {
			r.Recv(lu.nsIn, lu.north, 100)
		}
		if lu.west >= 0 {
			r.Recv(lu.ewIn, lu.west, 101)
		}
		r.Compute(lu.perPlane)
		if lu.south >= 0 {
			r.Send(lu.nsOut, lu.south, 100)
		}
		if lu.east >= 0 {
			r.Send(lu.ewOut, lu.east, 101)
		}
	}
}

// upper is the upper-triangular sweep: the reversed direction.
func (lu *luRank) upper() {
	r := lu.r
	for k := int64(0); k < lu.n; k++ {
		if lu.south >= 0 {
			r.Recv(lu.nsIn, lu.south, 102)
		}
		if lu.east >= 0 {
			r.Recv(lu.ewIn, lu.east, 103)
		}
		r.Compute(lu.perPlane)
		if lu.north >= 0 {
			r.Send(lu.nsOut, lu.north, 102)
		}
		if lu.west >= 0 {
			r.Send(lu.ewOut, lu.west, 103)
		}
	}
}

// swap exchanges a face with fwd, then with back, each side present only
// when that neighbour exists.
func (lu *luRank) swap(out, in memreg.Buf, fwd, back, tag int) {
	r := lu.r
	var rr mpi.Request
	if back >= 0 {
		rr = r.Irecv(in, back, tag)
	}
	if fwd >= 0 {
		r.Send(out, fwd, tag)
	}
	if back >= 0 {
		r.Wait(rr)
	}
	if fwd >= 0 {
		rr = r.Irecv(in, fwd, tag+1)
	}
	if back >= 0 {
		r.Send(out, back, tag+1)
	}
	if fwd >= 0 {
		r.Wait(rr)
	}
}
