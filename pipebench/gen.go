package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"ocep"
	"ocep/internal/event"
	"ocep/internal/mpi"
	"ocep/internal/ucpp"
)

// The generators below replace internal/workload's for benchmarking:
// those run real goroutines, so which sender an AnySource receive picks
// depends on scheduling, and their message IDs come from a process-wide
// counter. Here a seeded scheduler plays every actor, so one seed yields
// one event list. Trace names, kinds, types and texts are the ones the
// internal/workload patterns match.

// stream accumulates a causally consistent raw-event list: a send is
// always appended before its receive.
type stream struct {
	events []ocep.RawEvent
	seq    map[string]int
	msgID  uint64
}

func newStream(capHint int) *stream {
	return &stream{events: make([]ocep.RawEvent, 0, capHint), seq: make(map[string]int)}
}

func (s *stream) add(trace string, kind event.Kind, typ, text string, id uint64) {
	s.seq[trace]++
	s.events = append(s.events, ocep.RawEvent{
		Trace: trace, Seq: s.seq[trace], Kind: kind, Type: typ, Text: text, MsgID: id,
	})
}

func (s *stream) nextID() uint64 {
	s.msgID++
	return s.msgID
}

// genRaces is the message-race shape: ranks p1..p9 each send wavesPerEpoch
// messages to p0, which receives them with an any-source receive whose
// winner the seeded scheduler picks. Sends of one epoch are pairwise
// concurrent across senders, so every receive on p0 completes a match
// with each earlier receive of its epoch from another sender. An epoch
// ends with p0 sending a token to every sender, which orders the next
// epoch's sends after this epoch's receives and keeps the search bounded.
func genRaces(rng *rand.Rand, n int) []ocep.RawEvent {
	const ranks, wavesPerEpoch = 10, 2
	name := func(r int) string { return fmt.Sprintf("p%d", r) }
	type msg struct {
		from int
		id   uint64
	}
	s := newStream(n + 64)
	for len(s.events) < n {
		left := make([]int, ranks)
		for r := 1; r < ranks; r++ {
			left[r] = wavesPerEpoch
		}
		var inbox []msg
		toRecv := (ranks - 1) * wavesPerEpoch
		for toRecv > 0 {
			var senders []int
			for r := 1; r < ranks; r++ {
				if left[r] > 0 {
					senders = append(senders, r)
				}
			}
			choices := len(senders)
			if len(inbox) > 0 {
				choices++
			}
			if c := rng.Intn(choices); c < len(senders) {
				r := senders[c]
				id := s.nextID()
				s.add(name(r), event.KindSend, mpi.TypeSend, name(0), id)
				inbox = append(inbox, msg{from: r, id: id})
				left[r]--
				continue
			}
			i := rng.Intn(len(inbox))
			m := inbox[i]
			inbox = append(inbox[:i], inbox[i+1:]...)
			s.add(name(0), event.KindReceive, mpi.TypeRecv, name(m.from), m.id)
			toRecv--
		}
		ids := make([]uint64, ranks)
		for r := 1; r < ranks; r++ {
			ids[r] = s.nextID()
			s.add(name(0), event.KindSend, mpi.TypeSend, name(r), ids[r])
		}
		for _, r := range rng.Perm(ranks - 1) {
			s.add(name(r+1), event.KindReceive, mpi.TypeRecv, name(0), ids[r+1])
		}
	}
	return s.events
}

// genDeadlock is the parallel-random-walk shape: ranks pair into
// 2-member groups that exchange walkers every round. A safe round
// staggers the exchange (member 0 sends first, member 1 receives first);
// a buggy round (probability bugProb) has both members send first, a
// send-send cycle that the deadlock pattern reports as one match.
// Groups advance independently, interleaved event by event.
func genDeadlock(rng *rand.Rand, n int) []ocep.RawEvent {
	const ranks, bugProb = 8, 0.25
	name := func(r int) string { return fmt.Sprintf("p%d", r) }
	walkers := make([]int, ranks)
	for r := range walkers {
		walkers[r] = 8 + r%4
	}
	// round queues one group-round's events as closures, so groups
	// interleave at event granularity while each group keeps a causally
	// consistent order of its own.
	type group struct {
		round int
		queue []func()
	}
	s := newStream(n + 64)
	groups := make([]*group, ranks/2)
	for i := range groups {
		groups[i] = &group{}
	}
	plan := func(g int, gr *group) {
		a, b := 2*g, 2*g+1
		round := gr.round
		gr.round++
		walk := func(r int) func() {
			return func() {
				s.add(name(r), event.KindInternal, "walk_step", fmt.Sprintf("round=%d walkers=%d", round, walkers[r]), 0)
			}
		}
		var idAB, idBA uint64
		crossAB, crossBA := walkers[a]/4, walkers[b]/4
		sendAB := func() {
			idAB = s.nextID()
			s.add(name(a), event.KindSend, mpi.TypeSend, name(b), idAB)
		}
		sendBA := func() {
			idBA = s.nextID()
			s.add(name(b), event.KindSend, mpi.TypeSend, name(a), idBA)
		}
		recvA := func() {
			s.add(name(a), event.KindReceive, mpi.TypeRecv, name(b), idBA)
			walkers[a] += crossBA - crossAB
		}
		recvB := func() {
			s.add(name(b), event.KindReceive, mpi.TypeRecv, name(a), idAB)
			walkers[b] += crossAB - crossBA
		}
		if rng.Float64() < bugProb {
			gr.queue = []func(){walk(a), walk(b), sendAB, sendBA, recvA, recvB}
		} else {
			gr.queue = []func(){walk(a), walk(b), sendAB, recvB, sendBA, recvA}
		}
	}
	for len(s.events) < n {
		g := rng.Intn(len(groups))
		gr := groups[g]
		if len(gr.queue) == 0 {
			plan(g, gr)
		}
		gr.queue[0]()
		gr.queue = gr.queue[1:]
	}
	// Finish every open round so no receive is left without its send.
	for _, gr := range groups {
		for _, step := range gr.queue {
			step()
		}
	}
	return s.events
}

// genAtomicity is the atomicity-violation shape: threads run a method
// guarded by one semaphore, in lockstep rounds whose barrier is
// invisible to the instrumentation. With probability bugProb an
// execution skips the semaphore, so its method_enter is concurrent with
// the protected entries around it. The semaphore is its own trace, so
// with the traces split over shards every acquire and release whose
// thread lives elsewhere crosses shards.
func genAtomicity(rng *rand.Rand, n int) []ocep.RawEvent {
	const threads, bugProb = 6, 0.08
	const sem = "method-sem"
	name := func(t int) string { return fmt.Sprintf("thread-%d", t) }
	// Per-thread step within one round.
	const (
		stLocal = iota
		stAcquire
		stEnter
		stWork
		stExit
		stRelease
		stDone
	)
	s := newStream(n + 256)
	for len(s.events) < n {
		state := make([]int, threads)
		buggy := make([]bool, threads)
		for t := range buggy {
			buggy[t] = rng.Float64() < bugProb
		}
		free := true
		for {
			var runnable []int
			for t := 0; t < threads; t++ {
				if state[t] == stDone || (state[t] == stAcquire && !free) {
					continue
				}
				runnable = append(runnable, t)
			}
			if len(runnable) == 0 {
				break
			}
			t := runnable[rng.Intn(len(runnable))]
			switch state[t] {
			case stLocal:
				s.add(name(t), event.KindInternal, "local_compute", "", 0)
				state[t] = stAcquire
				if buggy[t] {
					state[t] = stEnter
				}
			case stAcquire:
				id := s.nextID()
				s.add(sem, event.KindSyncRelease, ucpp.TypeGrantOut, name(t), id)
				s.add(name(t), event.KindSyncAcquire, ucpp.TypeP, sem, id)
				free = false
				state[t] = stEnter
			case stEnter:
				s.add(name(t), event.KindInternal, "method_enter", "critical", 0)
				state[t] = stWork
			case stWork:
				s.add(name(t), event.KindInternal, "method_work", "critical", 0)
				state[t] = stExit
			case stExit:
				s.add(name(t), event.KindInternal, "method_exit", "critical", 0)
				state[t] = stRelease
				if buggy[t] {
					state[t] = stDone
				}
			case stRelease:
				id := s.nextID()
				s.add(name(t), event.KindSyncRelease, ucpp.TypeV, sem, id)
				s.add(sem, event.KindSyncAcquire, ucpp.TypeGrantIn, name(t), id)
				free = true
				state[t] = stDone
			}
		}
	}
	return s.events
}

// digest fingerprints an input list: equal digests mean equal inputs.
func digest(events []ocep.RawEvent) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, e := range events {
		str(e.Trace)
		put(uint64(e.Seq))
		put(uint64(e.Kind))
		str(e.Type)
		str(e.Text)
		put(e.MsgID)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
