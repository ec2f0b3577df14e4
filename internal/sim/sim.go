// Package sim provides the discrete-event simulation kernel used by the
// communication stack: protocol endpoints schedule callbacks on a shared
// virtual clock, so multi-minute GEO transfer scenarios run in
// microseconds of wall time while preserving exact timing relationships
// (propagation delay, serialization, timers).
package sim

import "container/heap"

// Simulator is a deterministic event queue with a virtual clock in seconds.
type Simulator struct {
	now   float64
	seq   int64
	queue eventHeap
	// MaxEvents guards against runaway protocol loops; 0 means no limit.
	MaxEvents int
	processed int
}

type event struct {
	at  float64
	seq int64 // FIFO tie-break for equal timestamps
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// New creates an empty simulator at t=0.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Schedule queues fn to run delay seconds from now. Negative delays run
// at the current time.
func (s *Simulator) Schedule(delay float64, fn func()) {
	delay = max(delay, 0)
	s.seq++
	heap.Push(&s.queue, event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Run executes events until the queue is empty (or MaxEvents is hit).
func (s *Simulator) Run() { s.runTo(func(float64) bool { return true }) }

// RunUntil executes events with timestamps <= t, then sets the clock to t
// (unless MaxEvents stopped it first).
func (s *Simulator) RunUntil(t float64) {
	if s.runTo(func(at float64) bool { return at <= t }) && t > s.now {
		s.now = t
	}
}

// runTo executes events while due(the next event's time) holds; it
// reports false when MaxEvents stopped it.
func (s *Simulator) runTo(due func(at float64) bool) bool {
	for s.queue.Len() > 0 && due(s.queue[0].at) {
		if s.MaxEvents > 0 && s.processed >= s.MaxEvents {
			return false
		}
		e := heap.Pop(&s.queue).(event)
		s.now = e.at
		s.processed++
		e.fn()
	}
	return true
}
