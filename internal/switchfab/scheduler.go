package switchfab

import (
	"fmt"
	"sync"
)

// Beam is the locked single-shard view a Scheduler works on during
// Fill: the fabric takes the shard lock once per fill, so a scheduler
// makes its whole sequence of peek/pop decisions against a consistent
// queue state without per-packet locking. A Beam is only valid for the
// duration of the Fill call that received it.
type Beam struct{ sh *shard }

// Len returns the packets queued in one class.
func (b Beam) Len(c Class) int { return b.sh.q[c].n }

// Pop dequeues a class's oldest packet.
func (b Beam) Pop(c Class) (Packet, bool) {
	p, ok := b.sh.q[c].pop()
	if ok {
		b.sh.n--
	}
	return p, ok
}

// Scheduler decides which queued packets fill a beam's downlink slots.
// Fill pops packets from the locked beam view in scheduling order and
// hands each to emit; emit reports whether the packet consumed a slot
// (false means the driver discarded it without using one — e.g. a
// packet whose codeword no longer fits a burst after a codec swap —
// and the scheduler keeps going). Fill returns the slots consumed and
// stops at `slots` or when it is out of eligible packets. A popped
// packet is gone either way: schedulers never re-queue.
//
// Implementations may keep per-beam state across calls (DRR deficits),
// keyed by the beam argument. The fabric serializes Fill per beam via
// the shard lock, but fills of different beams may run concurrently —
// a stateful scheduler guards its own state (DRR holds a mutex for the
// duration of Fill), keeping Schedule as thread-safe as the rest of
// the fabric surface.
type Scheduler interface {
	Name() string
	Fill(q Beam, beam, slots int, emit func(Packet) bool) int
}

// FIFO drains packets in arrival order regardless of class — bit-
// identical to the pre-fabric engine's per-beam queue on single-class
// runs, and the default scheduler.
type FIFO struct{}

// Name implements Scheduler.
func (FIFO) Name() string { return "fifo" }

// Fill implements Scheduler.
func (FIFO) Fill(q Beam, _, slots int, emit func(Packet) bool) int {
	used := 0
	for used < slots {
		c, ok := headClass(q.sh)
		if !ok {
			break
		}
		p, _ := q.Pop(c)
		if emit(p) {
			used++
		}
	}
	return used
}

// StrictPriority serves EF before AF before BE. Unchecked, a saturated
// EF class starves best effort completely; BEFloor bounds the
// starvation by reserving that many slots per beam per frame for BE
// (when BE has traffic — unused floor slots fall back to the priority
// order).
type StrictPriority struct {
	// BEFloor is the best-effort slot reservation per beam per frame.
	BEFloor int
}

// Name implements Scheduler.
func (s StrictPriority) Name() string {
	if s.BEFloor > 0 {
		return fmt.Sprintf("strict+be%d", s.BEFloor)
	}
	return "strict"
}

// Fill implements Scheduler.
func (s StrictPriority) Fill(q Beam, _, slots int, emit func(Packet) bool) int {
	used := 0
	for floor := min(s.BEFloor, slots); floor > 0; {
		p, ok := q.Pop(ClassBE)
		if !ok {
			break
		}
		if emit(p) {
			used++
			floor--
		}
	}
	for _, c := range priorityOrder {
		for used < slots {
			p, ok := q.Pop(c)
			if !ok {
				break
			}
			if emit(p) {
				used++
			}
		}
	}
	return used
}

// DRR is a deficit-round-robin scheduler over the traffic classes: each
// class accrues its weight in slot credits per round and spends them on
// queued packets, so sustained saturated classes converge to downlink
// shares proportional to their weights while unused credit of an empty
// class is forfeited (standard DRR). Per-beam deficits persist across
// frames, so the shares converge over a run even when a frame's slot
// budget does not divide a round evenly.
type DRR struct {
	weights [NumClasses]int

	// mu guards states: the fabric's shard locks serialize fills per
	// beam, not across beams, and the package contract keeps Schedule
	// safe from any goroutine.
	mu     sync.Mutex
	states map[int]*drrState
}

type drrState struct {
	deficit [NumClasses]int
	next    int // rotation index into priorityOrder
	// midVisit marks that the last Fill ran out of slot budget while
	// priorityOrder[next] still had credit and traffic: the next Fill
	// resumes that class without granting fresh quantum, so frame
	// boundaries do not distort the round-robin shares.
	midVisit bool
}

// NewDRR builds a DRR scheduler with the given per-class weights in
// slots per round. Weights must be non-negative with at least one
// positive; a zero-weight class accrues no credit and is never served —
// give it a weight (or use StrictPriority's BE floor) if it must make
// progress.
func NewDRR(weightEF, weightAF, weightBE int) (*DRR, error) {
	if weightEF < 0 || weightAF < 0 || weightBE < 0 {
		return nil, fmt.Errorf("switchfab: negative DRR weight (ef=%d af=%d be=%d)", weightEF, weightAF, weightBE)
	}
	if weightEF+weightAF+weightBE == 0 {
		return nil, fmt.Errorf("switchfab: DRR needs at least one positive weight")
	}
	d := &DRR{states: make(map[int]*drrState)}
	d.weights[ClassEF] = weightEF
	d.weights[ClassAF] = weightAF
	d.weights[ClassBE] = weightBE
	return d, nil
}

// Name implements Scheduler.
func (d *DRR) Name() string {
	return fmt.Sprintf("drr-%d/%d/%d", d.weights[ClassEF], d.weights[ClassAF], d.weights[ClassBE])
}

// Fill implements Scheduler.
func (d *DRR) Fill(q Beam, beam, slots int, emit func(Packet) bool) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.states[beam]
	if st == nil {
		st = &drrState{}
		d.states[beam] = st
	}
	used, idle := 0, 0
	for used < slots && idle < NumClasses {
		c := priorityOrder[st.next]
		if st.midVisit {
			st.midVisit = false
		} else {
			if q.Len(c) == 0 {
				st.deficit[c] = 0
				st.next = (st.next + 1) % NumClasses
				idle++
				continue
			}
			st.deficit[c] += d.weights[c]
		}
		popped := false
		for st.deficit[c] > 0 && used < slots && q.Len(c) > 0 {
			p, _ := q.Pop(c)
			popped = true
			if emit(p) {
				used++
				st.deficit[c]--
			}
		}
		if used == slots && st.deficit[c] > 0 && q.Len(c) > 0 {
			// Budget exhausted mid-service: resume this class next Fill
			// with the credit it is still owed.
			st.midVisit = true
			break
		}
		if q.Len(c) == 0 {
			st.deficit[c] = 0
		}
		st.next = (st.next + 1) % NumClasses
		if popped {
			idle = 0
		} else {
			idle++ // zero-weight class with traffic: no credit, no pop
		}
	}
	return used
}

// Schedule fills one beam's downlink slot budget through a scheduler,
// holding the beam's shard lock for the duration of the fill so the
// scheduler sees (and mutates) a consistent queue state. emit is called
// with the lock held and must not call back into the fabric. It returns
// the slots consumed.
func (f *Fabric) Schedule(s Scheduler, beam, slots int, emit func(Packet) bool) int {
	if beam < 0 || beam >= len(f.shards) || slots <= 0 {
		return 0
	}
	sh := &f.shards[beam]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.Fill(Beam{sh}, beam, slots, emit)
}
