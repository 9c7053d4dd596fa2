package mpi

import (
	"fmt"
	"sort"
	"strings"

	"mpinet/internal/memreg"
)

// commWorldID is the context id of MPI_COMM_WORLD.
const commWorldID = 0

// Comm is a communicator: an ordered group of ranks with an isolated
// matching context, produced by CommWorld or Split. Point-to-point and
// collective traffic in different communicators never match each other,
// exactly as MPI contexts guarantee.
type Comm struct {
	r     *Rank
	id    int
	ranks []int // world ranks; index = rank within this communicator
	me    int   // my rank within this communicator
}

// CommWorld returns this rank's view of MPI_COMM_WORLD.
func (r *Rank) CommWorld() *Comm { return &r.world }

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the communicator's group size.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a communicator rank to its world rank.
func (c *Comm) WorldRank(rank int) int {
	if rank < 0 || rank >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: rank %d outside communicator of size %d", rank, len(c.ranks)))
	}
	return c.ranks[rank]
}

// Point-to-point calls. Rank's Send, Recv, Isend, Irecv and Wait are
// MPI_COMM_WORLD's entries below. Every user entry, here or on Rank, runs
// check on its arguments, then one of the unchecked primitives below,
// which collectives and Split's agreement call directly (internal tags are
// negative).

// Send is a blocking send to a communicator rank.
func (c *Comm) Send(buf memreg.Buf, dst, tag int) {
	c.check("Send", dst, tag, false)
	c.send(buf, dst, tag, false)
}

// Recv is a blocking receive from a communicator rank (or AnySource); tag
// may be AnyTag. The status reports the source as a communicator rank.
func (c *Comm) Recv(buf memreg.Buf, src, tag int) Status {
	c.check("Recv", src, tag, true)
	st := c.r.waitFree(c.irecv(buf, src, tag, false))
	st.Source = c.commRankOf(st.Source)
	return st
}

// Isend starts a non-blocking send to a communicator rank.
func (c *Comm) Isend(buf memreg.Buf, dst, tag int) *Request {
	c.check("Isend", dst, tag, false)
	return c.isend(buf, dst, tag, true)
}

// Irecv starts a non-blocking receive from a communicator rank.
func (c *Comm) Irecv(buf memreg.Buf, src, tag int) *Request {
	c.check("Irecv", src, tag, true)
	return c.irecv(buf, src, tag, true)
}

// Wait completes a request started on this communicator; receive statuses
// report communicator ranks. The request stays the caller's and is never
// recycled.
func (c *Comm) Wait(req *Request) Status {
	if req == nil || req.ps != c.r.ps {
		panic("mpi: Wait on foreign or nil request")
	}
	st := c.r.waitOne(req)
	if !req.isSend {
		st.Source = c.commRankOf(st.Source)
	}
	return st
}

// check panics, naming the call, unless peer is a member of the
// communicator (or AnySource on a receive) and tag is a user tag: zero or
// more, or AnyTag on a receive. Negative tags are the collectives' own.
func (c *Comm) check(call string, peer, tag int, recv bool) {
	if uint(peer) >= uint(len(c.ranks)) && !(recv && peer == AnySource) {
		panic(fmt.Sprintf("mpi: %s: rank %d is not in the communicator (size %d)", call, peer, len(c.ranks)))
	}
	if tag < 0 && !(recv && tag == AnyTag) {
		panic(fmt.Sprintf("mpi: %s: tag %d is not a user tag (>= 0, or AnyTag on receives)", call, tag))
	}
}

// commRankOf translates a status's world-rank source into this
// communicator: the identity on MPI_COMM_WORLD, a scan of the group
// otherwise.
func (c *Comm) commRankOf(worldRank int) int {
	if c.id == commWorldID {
		return worldRank
	}
	for i, w := range c.ranks {
		if w == worldRank {
			return i
		}
	}
	return worldRank // e.g. zero-value statuses
}

// send is the blocking send primitive; sync forces the rendezvous
// protocol (Ssend). Its request never leaves the call, so the call frees
// it.
func (c *Comm) send(buf memreg.Buf, dst, tag int, sync bool) {
	ps := c.r.ps
	ps.poll(c.r.p)
	c.r.waitFree(ps.startSend(c.r.p, buf, c.id, c.WorldRank(dst), tag, false, sync))
}

// recv is the blocking receive primitive of collective traffic, which
// reads no status.
func (c *Comm) recv(buf memreg.Buf, src, tag int) { c.r.waitFree(c.irecv(buf, src, tag, false)) }

// isend starts a send and returns its request, which belongs to the caller
// that waits on it.
func (c *Comm) isend(buf memreg.Buf, dst, tag int, nonblocking bool) *Request {
	ps := c.r.ps
	ps.poll(c.r.p)
	return ps.startSend(c.r.p, buf, c.id, c.WorldRank(dst), tag, nonblocking, false)
}

// irecv posts a receive and returns its request, which belongs to the
// caller that waits on it.
func (c *Comm) irecv(buf memreg.Buf, src, tag int, nonblocking bool) *Request {
	if src != AnySource {
		src = c.WorldRank(src)
	}
	ps := c.r.ps
	ps.poll(c.r.p)
	return ps.startRecv(c.r.p, buf, c.id, src, tag, nonblocking)
}

// Split partitions the communicator: members passing the same color form a
// new communicator, ordered by (key, parent rank) — MPI_Comm_split
// semantics. It is collective over the parent communicator and pays the
// real agreement cost: a ring allgather of the color/key pairs. The values
// themselves travel out of band (the simulator moves time, not bytes)
// through a generation-keyed board, so back-to-back splits cannot observe
// each other's postings.
func (c *Comm) Split(color, key int) *Comm {
	p := c.Size()
	ps := c.r.ps
	gen := ps.nextSplitGen(c.id)
	ps.world.splitBoard(c.id, gen)[c.me] = [2]int{color, key}

	// Agreement traffic: ring allgather of 8-byte entries over the parent.
	// Completing it guarantees every member has posted to the board. It is
	// profiled as the collective call MPI_Comm_split is.
	c.agree("CommSplit", 8, p-1)

	// Build my group: members with my color, ordered by (key, parent rank).
	board := ps.world.splitBoard(c.id, gen)
	type member struct{ key, rank int }
	var group []member
	for rank := 0; rank < p; rank++ {
		ck, ok := board[rank]
		if !ok {
			panic("mpi: Split allgather completed with missing postings")
		}
		if ck[0] == color {
			group = append(group, member{key: ck[1], rank: rank})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	worldRanks := make([]int, len(group))
	me := 0
	for i, m := range group {
		worldRanks[i] = c.ranks[m.rank]
		if m.rank == c.me {
			me = i
		}
	}
	return &Comm{r: c.r, id: ps.world.commID(worldRanks), ranks: worldRanks, me: me}
}

// Dup duplicates the communicator with a fresh matching context
// (MPI_Comm_dup): traffic on the duplicate never matches the original's.
func (c *Comm) Dup() *Comm {
	// Context agreement costs a barrier-equivalent round, profiled as the
	// collective call it is.
	c.agree("CommDup", 0, 1)
	gen := c.r.ps.nextSplitGen(c.id)
	ranks := append([]int(nil), c.ranks...)
	id := c.r.ps.world.commID(append(append([]int(nil), ranks...), -1-gen))
	return &Comm{r: c.r, id: id, ranks: ranks, me: c.me}
}

// tagSplit is the internal tag for Split/Dup agreement traffic.
const tagSplit = -17

// agree runs Split's and Dup's context-agreement traffic, profiled as the
// collective call name: rounds of a ring exchange of 8-byte entries
// over this communicator.
func (c *Comm) agree(name string, bytes int64, rounds int) {
	defer c.r.collective(name, bytes).endCollective()
	p := c.Size()
	if p == 1 {
		return
	}
	entry := c.r.ps.scratch(8)
	prev := (c.me - 1 + p) % p
	next := (c.me + 1) % p
	for s := 0; s < rounds; s++ {
		rr := c.irecv(entry, prev, tagSplit, true)
		c.send(entry, next, tagSplit, false)
		c.r.waitFree(rr)
	}
}

// nextSplitGen returns and advances this rank's Split/Dup generation for a
// parent communicator. The map materializes on first use: most ranks never
// split, and a thousand pre-allocated empty maps were measurable in world
// construction.
func (ps *procState) nextSplitGen(parent int) int {
	if ps.splitGen == nil {
		ps.splitGen = make(map[int]int)
	}
	gen := ps.splitGen[parent]
	ps.splitGen[parent] = gen + 1
	return gen
}

// commID returns a stable context id for a rank list, identical across all
// members (the simulation analogue of context-id agreement). The completed
// agreement traffic — not this map — is what orders the members' calls.
func (w *World) commID(ranks []int) int {
	key := rankKey(ranks)
	if id, ok := w.commIDs[key]; ok {
		return id
	}
	w.nextComm++
	w.commIDs[key] = w.nextComm
	return w.nextComm
}

// splitBoard returns the posting board for one Split generation on a
// parent communicator. Each member posts its color/key before the
// agreement traffic runs and reads the board once that traffic has
// completed, which guarantees (through the message ordering) that all
// postings are present.
func (w *World) splitBoard(parentComm, gen int) map[int][2]int {
	key := [2]int{parentComm, gen}
	b, ok := w.splitBoards[key]
	if !ok {
		b = make(map[int][2]int)
		w.splitBoards[key] = b
	}
	return b
}

func rankKey(ranks []int) string {
	parts := make([]string, len(ranks))
	for i, r := range ranks {
		parts[i] = fmt.Sprint(r)
	}
	return strings.Join(parts, ",")
}
