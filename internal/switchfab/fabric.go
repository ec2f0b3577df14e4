// Package switchfab is the baseband packet switching fabric of the
// regenerative payload — the stage that makes on-board demodulation
// worth it ("packet switching can be performed at the satellite
// level"). Every downlink beam owns a shard, a lock and a set of
// per-class ring buffers, so concurrent routers contend only when they
// target the same beam, and readers (queue probes, the downlink
// scheduler) are safe against them. Packets are typed — payload bytes plus a
// traffic class, an opaque terminal token and an ingress frame stamp —
// and the downlink side pops them through a pluggable Scheduler
// (FIFO, strict priority with a best-effort floor, deficit round
// robin) to the caller's emit hook.
//
// The rings are the switch's buffer memory: RoutePacket copies a
// packet's Bits, and a popped packet's Bits stay valid until the next
// RoutePacket to that queue.
//
// Ownership rule (see DESIGN.md): RoutePacket, Schedule and every
// probe are safe from any goroutine at any time. Adopt and
// SetDepth reconfigure the fabric for a new exclusive driver (a traffic
// engine) and must not race in-flight routing — drivers call them at
// frame boundaries, engines at construction.
package switchfab

import "sync"

// Packet is one switched packet: the decoded payload bytes, the traffic
// class the downlink scheduler keys on, an opaque terminal token the
// driver uses to attribute delivery stats (comparable types only if a
// scheduler is to key on it), and the frame the packet entered the
// payload, for latency accounting. RoutePacket copies Bits; a popped
// packet's Bits belong to its queue slot and stay valid until the next
// RoutePacket to that queue (copy them to keep them longer).
type Packet struct {
	Bits    []byte
	Class   Class
	Term    any
	Ingress int

	// seq orders packets across the class queues of one shard —
	// assigned at enqueue, the FIFO scheduler's arrival-order key.
	seq uint64
}

// ring is a growable circular queue of packets that keeps the Bits
// storage of popped packets for later pushes. Bounded queues are
// preallocated to their bound at Adopt, so steady-state push/pop never
// allocates once the queue has held its peak.
type ring struct {
	buf  []Packet
	head int
	n    int
	free [][]byte // popped packets' Bits storage, the last popped on top
}

// push copies p, Bits included, into the next free slot.
func (r *ring) push(p Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	var st []byte
	if k := len(r.free); k > 0 {
		st, r.free = r.free[k-1], r.free[:k-1]
	}
	p.Bits = append(st[:0], p.Bits...)
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *ring) grow() {
	nb := make([]Packet, max(2*len(r.buf), 8))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = nb, 0
}

func (r *ring) pop() (Packet, bool) {
	if r.n == 0 {
		return Packet{}, false
	}
	p := r.buf[r.head]
	r.buf[r.head] = Packet{} // release the token to the GC
	r.free = append(r.free, p.Bits)
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p, true
}

func (r *ring) peek() (Packet, bool) {
	if r.n == 0 {
		return Packet{}, false
	}
	return r.buf[r.head], true
}

func (r *ring) reset(bound int) {
	clear(r.buf)
	r.head, r.n = 0, 0
	if bound > 0 && len(r.buf) < bound {
		r.buf = make([]Packet, bound)
	}
}

// shard is one beam's slice of the fabric: its own lock, one ring per
// class, and its counters. Shards are padded so concurrent routers on
// neighbouring beams do not false-share a cache line.
type shard struct {
	mu      sync.Mutex
	depth   int // per-class queue bound; 0 = unbounded
	q       [NumClasses]ring
	n       int    // total packets queued across classes
	seq     uint64 // next arrival sequence number
	hw      int    // peak total occupancy
	clsHW   [NumClasses]int
	routed  [NumClasses]int
	dropped [NumClasses]int

	_ [64]byte // pad to a cache line
}

// ClassCounters is one class's fabric-side accounting, aggregated over
// every shard.
type ClassCounters struct {
	Routed    int // packets enqueued
	Dropped   int // packets tail-dropped by a full class queue
	HighWater int // peak occupancy of any single beam's queue of this class
}

// Fabric is the sharded switch: one shard per downlink beam.
type Fabric struct {
	shards []shard
}

// New builds a fabric with the given number of downlink beams and
// per-(beam, class) queue bound (0 = unbounded, the standalone-payload
// default; traffic engines Adopt the fabric with their own bound).
func New(beams, depth int) *Fabric {
	beams = max(beams, 1)
	f := &Fabric{shards: make([]shard, beams)}
	for i := range f.shards {
		f.shards[i].depth = depth
	}
	return f
}

// NumBeams returns the number of downlink beams the fabric serves.
func (f *Fabric) NumBeams() int { return len(f.shards) }

// Adopt prepares the fabric for a new exclusive driver: every queue and
// counter is cleared, the per-(beam, class) bound is set, and bounded
// rings are preallocated to the bound so the steady-state
// route→schedule→fill path never allocates. Constructing a traffic
// engine adopts its payload's fabric; see the package ownership rule.
func (f *Fabric) Adopt(depth int) {
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		sh.depth = depth
		for c := range sh.q {
			sh.q[c].reset(depth)
		}
		sh.n, sh.seq, sh.hw = 0, 0, 0
		sh.clsHW, sh.routed, sh.dropped = [NumClasses]int{}, [NumClasses]int{}, [NumClasses]int{}
		sh.mu.Unlock()
	}
}

// SetDepth rebounds the per-(beam, class) queues without clearing them.
// A shrink does not evict queued packets: the bound applies to
// subsequent enqueues, so over-deep queues drain naturally.
func (f *Fabric) SetDepth(depth int) {
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		sh.depth = depth
		sh.mu.Unlock()
	}
}

// RoutePacket enqueues a typed packet for a downlink beam. A full class
// queue tail-drops (counted per class); a beam outside the fabric is
// refused. Safe from any goroutine; concurrent routers
// serialize only per beam.
func (f *Fabric) RoutePacket(beam int, p Packet) bool {
	if beam < 0 || beam >= len(f.shards) {
		return false
	}
	sh := &f.shards[beam]
	sh.mu.Lock()
	q := &sh.q[p.Class]
	if sh.depth > 0 && q.n >= sh.depth {
		sh.dropped[p.Class]++
		sh.mu.Unlock()
		return false
	}
	p.seq = sh.seq
	sh.seq++
	q.push(p)
	sh.n++
	sh.routed[p.Class]++
	sh.clsHW[p.Class] = max(sh.clsHW[p.Class], q.n)
	sh.hw = max(sh.hw, sh.n)
	sh.mu.Unlock()
	return true
}

// headClass returns the class whose head packet arrived first.
func headClass(sh *shard) (Class, bool) {
	var (
		best    Class
		bestSeq uint64
		found   bool
	)
	for c := Class(0); c < NumClasses; c++ {
		if p, ok := sh.q[c].peek(); ok && (!found || p.seq < bestSeq) {
			best, bestSeq, found = c, p.seq, true
		}
	}
	return best, found
}

// read returns what get reads from a beam's shard under its lock, or 0
// for a beam outside the fabric (observers probe freely).
func (f *Fabric) read(beam int, get func(*shard) int) int {
	if beam < 0 || beam >= len(f.shards) {
		return 0
	}
	sh := &f.shards[beam]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return get(sh)
}

// QueueDepth returns the packets queued for a beam across all classes.
func (f *Fabric) QueueDepth(beam int) int { return f.read(beam, func(sh *shard) int { return sh.n }) }

// ClassQueueDepth returns the packets queued for one (beam, class).
func (f *Fabric) ClassQueueDepth(beam int, c Class) int {
	if c >= NumClasses {
		return 0
	}
	return f.read(beam, func(sh *shard) int { return sh.q[c].n })
}

// HighWater returns the peak total occupancy a beam's queues reached
// since the last Adopt.
func (f *Fabric) HighWater(beam int) int { return f.read(beam, func(sh *shard) int { return sh.hw }) }

// ClassCounters aggregates the per-class accounting over every shard.
func (f *Fabric) ClassCounters() [NumClasses]ClassCounters {
	var out [NumClasses]ClassCounters
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for c := 0; c < NumClasses; c++ {
			out[c].Routed += sh.routed[c]
			out[c].Dropped += sh.dropped[c]
			out[c].HighWater = max(out[c].HighWater, sh.clsHW[c])
		}
		sh.mu.Unlock()
	}
	return out
}
