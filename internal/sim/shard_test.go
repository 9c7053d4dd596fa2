package sim

import (
	"errors"
	"testing"

	"mpinet/internal/units"
)

const testHop = 100 * units.Nanosecond

// runNet runs the workload to completion and returns the group.
func runNet(t *testing.T, shards, nodes, ops, rounds int) *shardNet {
	t.Helper()
	nt := buildShardNet(shards, nodes, ops, rounds, testHop, units.Nanosecond)
	if err := nt.s.Run(); err != nil {
		t.Fatalf("shards=%d: Run: %v", shards, err)
	}
	return nt
}

// TestShardPartitionInvariance pins the conservative scheduler's core
// contract: every observable of the workload — per-node arrival counts,
// per-node checksums that fold arrival timestamps in, switch forwards and
// the total dispatch count — is identical at every shard count.
func TestShardPartitionInvariance(t *testing.T) {
	const nodes, ops, rounds = 8, 16, 40
	base := runNet(t, 1, nodes, ops, rounds)
	if base.nodes[0].count == 0 {
		t.Fatal("workload produced no arrivals")
	}
	for _, shards := range []int{2, 3, 4, 8} {
		nt := runNet(t, shards, nodes, ops, rounds)
		for i, n := range nt.nodes {
			if n.count != base.nodes[i].count || n.sum != base.nodes[i].sum {
				t.Errorf("shards=%d node %d: (count,sum)=(%d,%#x), want (%d,%#x)",
					shards, i, n.count, n.sum, base.nodes[i].count, base.nodes[i].sum)
			}
		}
		if nt.sw.forwards != base.sw.forwards {
			t.Errorf("shards=%d: switch forwards %d, want %d", shards, nt.sw.forwards, base.sw.forwards)
		}
		if got, want := nt.s.Dispatched(), base.s.Dispatched(); got != want {
			t.Errorf("shards=%d: dispatched %d, want %d", shards, got, want)
		}
	}
}

// TestShardDeterministicReplay: two identical runs at the same shard count
// agree on every observable including the window count.
func TestShardDeterministicReplay(t *testing.T) {
	a := runNet(t, 4, 8, 8, 24)
	b := runNet(t, 4, 8, 8, 24)
	if a.s.Windows() != b.s.Windows() {
		t.Errorf("windows %d vs %d across identical runs", a.s.Windows(), b.s.Windows())
	}
	for i := range a.nodes {
		if a.nodes[i].sum != b.nodes[i].sum {
			t.Errorf("node %d checksum differs across identical runs", i)
		}
	}
	if a.s.Dispatched() != b.s.Dispatched() {
		t.Errorf("dispatched %d vs %d", a.s.Dispatched(), b.s.Dispatched())
	}
}

// TestMemberRunDrivesGroup: Run on any member engine advances the whole
// group — the delegation that lets mpi.World drive a sharded world through
// the one engine it holds.
func TestMemberRunDrivesGroup(t *testing.T) {
	nt := buildShardNet(4, 8, 4, 10, testHop, units.Nanosecond)
	if err := nt.nodes[len(nt.nodes)-1].eng.Run(); err != nil {
		t.Fatalf("member Run: %v", err)
	}
	for i, n := range nt.nodes {
		if n.count == 0 {
			t.Errorf("node %d on shard %d saw no arrivals", i, n.shard)
		}
	}
}

// TestZeroLookaheadFailsTyped: a group whose minimum cross-shard lookahead
// is zero must fail fast with *ZeroLookaheadError — never spin on empty
// windows. Both the default and a per-edge override are checked.
func TestZeroLookaheadFailsTyped(t *testing.T) {
	s := NewSharded(2, 0)
	s.Shard(0).Schedule(0, func() {})
	s.Shard(1).Schedule(0, func() {})
	var zle *ZeroLookaheadError
	if err := s.Run(); !errors.As(err, &zle) {
		t.Fatalf("Run with zero default lookahead: %v, want *ZeroLookaheadError", err)
	}

	s = NewSharded(3, testHop)
	s.SetEdgeLookahead(2, 1, 0)
	s.Shard(0).Schedule(0, func() {})
	if err := s.Run(); !errors.As(err, &zle) {
		t.Fatalf("Run with one zero edge: %v, want *ZeroLookaheadError", err)
	}
	if zle.Src != 2 || zle.Dst != 1 {
		t.Errorf("offending edge %d->%d, want 2->1", zle.Src, zle.Dst)
	}
}

// TestSendToLookaheadViolationPanicsTyped: a cross-shard send whose delay
// undercuts its edge's lookahead is a model bug and panics *LookaheadError.
func TestSendToLookaheadViolationPanicsTyped(t *testing.T) {
	s := NewSharded(2, testHop)
	sink := funcHandler(func() {})
	s.Shard(0).Schedule(0, func() {
		defer func() {
			var le *LookaheadError
			if r := recover(); r == nil {
				t.Error("short SendTo did not panic")
			} else if err, ok := r.(error); !ok || !errors.As(err, &le) {
				t.Errorf("short SendTo panicked %v, want *LookaheadError", r)
			} else if le.Delay != testHop/2 || le.Lookahead != testHop {
				t.Errorf("LookaheadError = %+v", le)
			}
		}()
		s.Shard(0).SendTo(1, testHop/2, sink, 0, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSendToSameShardDegradesToCall: dst == own shard needs no lookahead.
func TestSendToSameShardDegradesToCall(t *testing.T) {
	s := NewSharded(2, testHop)
	ran := false
	h := funcHandler(func() { ran = true })
	s.Shard(1).SendTo(1, 0, h, 0, 0)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Error("same-shard SendTo never dispatched")
	}
}

// TestShardedDeadlockAggregates: blocked processes on several shards drain
// into one DeadlockError with sorted names — the serial report, lifted to
// the group.
func TestShardedDeadlockAggregates(t *testing.T) {
	s := NewSharded(3, testHop)
	var c0, c2 Cond
	s.Shard(2).Spawn("rank2", func(p *Proc) { c2.Wait(p, "recv from rank0") })
	s.Shard(0).Spawn("rank0", func(p *Proc) { c0.Wait(p, "recv from rank2") })
	s.Shard(1).Schedule(testHop, func() {}) // some unrelated traffic
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run: %v, want *DeadlockError", err)
	}
	// Names must be sorted and carry the blocked-on reason.
	if len(dl.Procs) != 2 ||
		dl.Procs[0] != "rank0 (blocked: recv from rank2)" ||
		dl.Procs[1] != "rank2 (blocked: recv from rank0)" {
		t.Errorf("deadlock procs = %q", dl.Procs)
	}
}

// TestShardedProcFailure: a panicking process on a worker-dispatched shard
// re-panics out of the group Run as *ProcFailure, same as serial.
func TestShardedProcFailure(t *testing.T) {
	s := NewSharded(4, testHop)
	s.Shard(0).Schedule(testHop, func() {}) // force a multi-shard window
	s.Shard(3).Spawn("bad", func(p *Proc) {
		p.Sleep(2 * testHop)
		panic("boom")
	})
	defer func() {
		r := recover()
		pf, ok := r.(*ProcFailure)
		if !ok {
			t.Fatalf("Run panicked %v, want *ProcFailure", r)
		}
		if pf.Proc != "bad" || pf.Value != "boom" {
			t.Errorf("ProcFailure = %+v", pf)
		}
	}()
	_ = s.Run()
	t.Fatal("Run returned without panicking")
}

// TestShardedHorizon: RunUntil lands every shard's clock exactly on the
// limit, leaves future events queued, and a later Run picks them up.
func TestShardedHorizon(t *testing.T) {
	s := NewSharded(3, testHop)
	fired := make([]bool, 3)
	atLimit := false
	limit := 10 * testHop
	s.Shard(0).At(limit, func() { atLimit = true })
	for i := 0; i < 3; i++ {
		i := i
		s.Shard(i).At(20*testHop, func() { fired[i] = true })
	}
	if err := s.RunUntil(limit); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !atLimit {
		t.Error("event at exactly the limit did not run")
	}
	for i := 0; i < 3; i++ {
		if s.Shard(i).Now() != limit {
			t.Errorf("shard %d clock %v, want %v", i, s.Shard(i).Now(), limit)
		}
		if fired[i] {
			t.Errorf("shard %d event past the horizon ran", i)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !fired[i] {
			t.Errorf("shard %d event did not run after resume", i)
		}
	}
}

// condRelay delivers a cross-shard wakeup: it owns a destination-shard Cond
// and broadcasts it when the event lands.
type condRelay struct{ c *Cond }

func (r *condRelay) HandleEvent(int64, int64) { r.c.Broadcast() }

// TestCrossShardProcWake: a process parked on one shard is woken by a
// message from another, and the blocked-time accounting matches the
// message's flight time.
func TestCrossShardProcWake(t *testing.T) {
	s := NewSharded(2, testHop)
	var c Cond
	relay := &condRelay{c: &c}
	var wokeAt Time
	s.Shard(1).Spawn("waiter", func(p *Proc) {
		c.Wait(p, "cross-shard wake")
		wokeAt = p.Now()
	})
	s.Shard(0).Schedule(3*testHop, func() {
		s.Shard(0).SendTo(1, testHop, relay, 0, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := 4 * testHop; wokeAt != want {
		t.Errorf("waiter woke at %v, want %v", wokeAt, want)
	}
}

// --- cross-shard ordering under rail failover ---------------------------

// foSender streams seq 0..total-1 to a receiver over rail A (fast); at seq
// failAt it detects a rail kill and re-issues the in-flight tail plus the
// remainder over rail B (slow). The duplicate re-sends race the originals —
// exactly the failover pattern internal/rail plays out — and the receiver's
// accept order must be a pure function of the latencies.
type foSender struct {
	eng       *Engine
	recv      *foReceiver
	recvShard int
	send      func(e *Engine, dstShard int, delay Time, h Handler, a, b int64)
	gap       Time
	latA      Time
	latB      Time
	total     int64
	failAt    int64
	inflight  int64 // how many already-sent seqs are re-issued at failover
}

func (s *foSender) HandleEvent(seq, _ int64) {
	if seq == s.failAt {
		// Rail A died: re-issue the presumed-lost in-flight tail and every
		// remaining seq over rail B.
		for q := seq - s.inflight; q < s.total; q++ {
			s.send(s.eng, s.recvShard, s.latB+Time(q-seq+s.inflight)*s.gap, s.recv, q, 1)
		}
		return
	}
	s.send(s.eng, s.recvShard, s.latA, s.recv, seq, 0)
	s.eng.Call(s.gap, s, seq+1, 0)
}

type foArrival struct {
	seq  int64
	at   Time
	rail int64
}

type foReceiver struct {
	eng      *Engine
	seen     map[int64]bool
	accepted []foArrival
	dups     int
}

func (r *foReceiver) HandleEvent(seq, rail int64) {
	if r.seen[seq] {
		r.dups++
		return
	}
	r.seen[seq] = true
	r.accepted = append(r.accepted, foArrival{seq: seq, at: r.eng.Now(), rail: rail})
}

func runFailover(t *testing.T, shards int) *foReceiver {
	t.Helper()
	s := NewSharded(shards, testHop)
	sendShard, recvShard := shards-1, 0 // cross-shard whenever shards > 1
	recv := &foReceiver{eng: s.Shard(recvShard), seen: make(map[int64]bool)}
	nt := &shardNet{s: s} // reuse the shard-aware send helper
	snd := &foSender{
		eng: s.Shard(sendShard), recv: recv, recvShard: recvShard, send: nt.send,
		gap: testHop / 2, latA: 2 * testHop, latB: 9 * testHop,
		total: 12, failAt: 6, inflight: 2,
	}
	snd.eng.Call(0, snd, 0, 0)
	if err := s.Run(); err != nil {
		t.Fatalf("shards=%d: Run: %v", shards, err)
	}
	return recv
}

// TestCrossShardOrderingUnderFailover: the failover cascade's accepted
// sequence — which original beats which duplicate, on which rail, at what
// time — is identical at shard counts 1, 2 and 4.
func TestCrossShardOrderingUnderFailover(t *testing.T) {
	base := runFailover(t, 1)
	if len(base.accepted) != 12 {
		t.Fatalf("accepted %d seqs, want 12", len(base.accepted))
	}
	if base.dups == 0 {
		t.Fatal("failover produced no duplicate deliveries; the race is not being exercised")
	}
	onB := 0
	for _, a := range base.accepted {
		if a.rail == 1 {
			onB++
		}
	}
	if onB == 0 || onB == len(base.accepted) {
		t.Fatalf("accepted rail split A/B = %d/%d; both rails must win some", len(base.accepted)-onB, onB)
	}
	for _, shards := range []int{2, 4} {
		r := runFailover(t, shards)
		if len(r.accepted) != len(base.accepted) || r.dups != base.dups {
			t.Fatalf("shards=%d: accepted/dups = %d/%d, want %d/%d",
				shards, len(r.accepted), r.dups, len(base.accepted), base.dups)
		}
		for i, a := range r.accepted {
			if a != base.accepted[i] {
				t.Errorf("shards=%d: accept[%d] = %+v, want %+v", shards, i, a, base.accepted[i])
			}
		}
	}
}

// TestPartitionNodes: contiguous blocks, sizes within one of each other,
// switch on shard 0, and shards > nodes leaves trailing shards empty.
func TestPartitionNodes(t *testing.T) {
	p := PartitionNodes(10, 4)
	if p.SwitchShard != 0 {
		t.Errorf("switch shard %d, want 0", p.SwitchShard)
	}
	counts := make([]int, 4)
	for i, sh := range p.NodeShard {
		counts[sh]++
		if i > 0 && sh < p.NodeShard[i-1] {
			t.Fatalf("placement not monotone: %v", p.NodeShard)
		}
	}
	for i, c := range counts {
		if c < 2 || c > 3 {
			t.Errorf("shard %d holds %d nodes, want 2 or 3 (placement %v)", i, c, p.NodeShard)
		}
	}
	p = PartitionNodes(2, 8)
	for _, sh := range p.NodeShard {
		if sh < 0 || sh >= 8 {
			t.Fatalf("shard index %d out of range", sh)
		}
	}
}

// mailbox counts the messages delivered to one process and wakes it.
type mailbox struct {
	got int
	c   Cond
}

func (m *mailbox) HandleEvent(int64, int64) {
	m.got++
	m.c.Broadcast()
}

// TestShardedProcResumeAcrossGoroutines: processes on shards 0 and 2 of a
// three-shard group trade one message per round through SendTo. In an
// exchange round both send at once, so both shards hold events in the same
// window and shard 2 runs on its worker; in a ping-pong round shard 2 holds
// the only events while "b" receives, so the coordinator runs it inline.
// The coroutine of "b" is therefore resumed from both goroutines, and every
// wake must still land on its instant.
func TestShardedProcResumeAcrossGoroutines(t *testing.T) {
	const rounds = 64
	period := 4 * testHop
	s := NewSharded(3, testHop)
	var boxA, boxB mailbox
	var wakeA, wakeB []Time
	align := func(p *Proc, k int) { p.Sleep(Time(k)*period - p.Now()) }
	recv := func(p *Proc, box *mailbox, k int) {
		box.c.WaitUntil(p, "message", func() bool { return box.got > k })
	}
	s.Shard(0).Spawn("a", func(p *Proc) {
		for k := 0; k < rounds; k++ {
			align(p, k)
			p.Engine().SendTo(2, testHop, &boxB, 0, 0)
			recv(p, &boxA, k)
			wakeA = append(wakeA, p.Now())
		}
	})
	s.Shard(2).Spawn("b", func(p *Proc) {
		for k := 0; k < rounds; k++ {
			align(p, k)
			exchange := k%2 == 0
			if exchange {
				p.Engine().SendTo(0, testHop, &boxA, 0, 0)
			}
			recv(p, &boxB, k)
			wakeB = append(wakeB, p.Now())
			if !exchange {
				p.Engine().SendTo(0, testHop, &boxA, 0, 0)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(wakeA) != rounds || len(wakeB) != rounds {
		t.Fatalf("completed %d/%d rounds, want %d each", len(wakeA), len(wakeB), rounds)
	}
	for k := 0; k < rounds; k++ {
		start := Time(k) * period
		wantA := start + testHop // exchange: b's message left at the round start
		if k%2 == 1 {
			wantA += testHop // ping-pong: b replied on receipt
		}
		if wakeA[k] != wantA {
			t.Errorf("round %d: a woke at %v, want %v", k, wakeA[k], wantA)
		}
		if want := start + testHop; wakeB[k] != want {
			t.Errorf("round %d: b woke at %v, want %v", k, wakeB[k], want)
		}
	}
	if s.Windows() < 2*rounds {
		t.Errorf("%d windows for %d rounds; the rounds did not span separate windows", s.Windows(), rounds)
	}
}

// TestSoloFastPathWindows: a workload living entirely on one shard of a
// multi-shard group runs in a single window — the unpartitioned-world
// overhead guarantee.
func TestSoloFastPathWindows(t *testing.T) {
	s := NewSharded(8, testHop)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 1000 {
			s.Shard(0).Schedule(units.Nanosecond, tick)
		}
	}
	s.Shard(0).Schedule(0, tick)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Windows() != 1 {
		t.Errorf("solo workload took %d windows, want 1", s.Windows())
	}
	if got := s.Dispatched(); got != 1000 {
		t.Errorf("dispatched %d, want 1000", got)
	}
}
