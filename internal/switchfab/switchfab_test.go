package switchfab

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// pkt builds a small distinguishable payload.
func pkt(id int) []byte { return []byte{byte(id >> 8), byte(id)} }

// route enqueues an unmarked (best effort) packet.
func route(f *Fabric, beam int, payload []byte) bool {
	return f.RoutePacket(beam, Packet{Bits: payload})
}

// totals sums the per-class counters: packets enqueued and tail-dropped
// since the last Adopt.
func totals(f *Fabric) (routed, dropped int) {
	for _, cc := range f.ClassCounters() {
		routed += cc.Routed
		dropped += cc.Dropped
	}
	return routed, dropped
}

// drain removes and returns every packet queued for a beam in arrival
// order across classes.
func drain(f *Fabric, beam int) [][]byte {
	var out [][]byte
	f.Schedule(FIFO{}, beam, f.QueueDepth(beam), func(p Packet) bool {
		out = append(out, p.Bits)
		return true
	})
	return out
}

// Route/Drain round trip in arrival order, multi-beam, plus the probe
// surface — the contract the seed's PacketSwitch tests pinned.
func TestFabricRoutingAndDrain(t *testing.T) {
	f := New(4, 0)
	route(f, 1, pkt(10))
	route(f, 3, pkt(30))
	route(f, 1, pkt(11))
	if got := f.QueueDepth(1); got != 2 {
		t.Fatalf("beam 1 depth %d, want 2", got)
	}
	if got, _ := totals(f); got != 3 {
		t.Fatalf("routed %d, want 3", got)
	}
	if f.QueueDepth(0) != 0 || f.QueueDepth(2) != 0 || f.QueueDepth(3) != 1 {
		t.Fatal("packets queued on the wrong beams")
	}
	got := drain(f, 1)
	if len(got) != 2 || got[0][1] != 10 || got[1][1] != 11 {
		t.Fatalf("drain order wrong: %v", got)
	}
	if f.QueueDepth(1) != 0 || len(drain(f, 1)) != 0 {
		t.Fatal("drain left packets behind")
	}
	if got := drain(f, 3); len(got) != 1 || got[0][1] != 30 {
		t.Fatalf("beam 3 drain %v", got)
	}
	// Out-of-range probes are free; out-of-range routes are refused.
	if f.QueueDepth(-1) != 0 || f.QueueDepth(99) != 0 {
		t.Fatal("out-of-range probe not zero")
	}
	if route(f, 99, pkt(1)) {
		t.Fatal("route to a beam outside the fabric accepted")
	}
}

// RoutePacket copies the bits: the caller may reuse its slice at once,
// and the queued packet pops with the bits it was routed with.
func TestRouteCopiesBits(t *testing.T) {
	f := New(1, 4)
	buf := []byte{1, 0, 1, 1}
	for i := 0; i < 3; i++ {
		f.RoutePacket(0, Packet{Bits: buf})
		buf[i] ^= 1
	}
	want := [][]byte{{1, 0, 1, 1}, {0, 0, 1, 1}, {0, 1, 1, 1}}
	if got := drain(f, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	if !bytes.Equal(buf, []byte{0, 1, 0, 1}) {
		t.Fatalf("fabric wrote the caller's slice: %v", buf)
	}
}

// A full class queue tail-drops, counted per class, and the bound is
// per (beam, class) — one class's backlog cannot evict another's
// buffer space.
func TestFabricBoundedQueuesDropPerClass(t *testing.T) {
	f := New(2, 2)
	for i := 0; i < 5; i++ {
		f.RoutePacket(0, Packet{Bits: pkt(i), Class: ClassBE})
	}
	if !f.RoutePacket(0, Packet{Bits: pkt(9), Class: ClassEF}) {
		t.Fatal("EF blocked by a full BE queue: the bound must be per class")
	}
	if got := f.QueueDepth(0); got != 3 {
		t.Fatalf("beam 0 holds %d packets, want 2 BE + 1 EF", got)
	}
	cc := f.ClassCounters()
	if cc[ClassBE].Routed != 2 || cc[ClassBE].Dropped != 3 {
		t.Fatalf("BE counters %+v", cc[ClassBE])
	}
	if cc[ClassEF].Dropped != 0 || cc[ClassEF].Routed != 1 {
		t.Fatalf("EF counters %+v", cc[ClassEF])
	}
	if cc[ClassBE].HighWater != 2 || f.HighWater(0) != 3 {
		t.Fatalf("high water class=%d beam=%d", cc[ClassBE].HighWater, f.HighWater(0))
	}
}

// Adopt clears queues and counters and rebounds; SetDepth rebounds
// without evicting.
func TestAdoptAndSetDepth(t *testing.T) {
	f := New(2, 0)
	for i := 0; i < 6; i++ {
		route(f, 0, pkt(i))
	}
	f.SetDepth(4)
	if f.QueueDepth(0) != 6 {
		t.Fatal("SetDepth evicted queued packets")
	}
	if route(f, 0, pkt(7)) {
		t.Fatal("over-deep queue accepted another packet")
	}
	f.Adopt(3)
	if r, d := totals(f); f.QueueDepth(0) != 0 || r != 0 || d != 0 || f.HighWater(0) != 0 {
		t.Fatal("Adopt left state behind")
	}
	if d := f.shards[0].depth; d != 3 {
		t.Fatalf("depth %d after Adopt(3)", d)
	}
}

// The fabric must be safe under the race detector with concurrent
// routers and concurrent readers — exactly the frame-routing-vs-Drain
// exposure the seed switch had. Counters must balance exactly.
func TestConcurrentRoutersAndReaders(t *testing.T) {
	const (
		workers = 8
		perW    = 500
		beams   = 4
	)
	f := New(beams, 16)
	var wg sync.WaitGroup
	drained := make([]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				f.RoutePacket((w+i)%beams, Packet{Bits: pkt(i), Class: Class(i % NumClasses)})
				if i%16 == 0 {
					f.QueueDepth(i % beams)
					f.ClassCounters()
				}
				if i%64 == 0 {
					drained[w] += len(drain(f, (w+i)%beams))
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, d := range drained {
		total += d
	}
	for b := 0; b < beams; b++ {
		total += len(drain(f, b))
	}
	routed, dropped := totals(f)
	if total != routed {
		t.Fatalf("drained %d packets, routed %d", total, routed)
	}
	if routed+dropped != workers*perW {
		t.Fatalf("routed %d + dropped %d != sent %d", routed, dropped, workers*perW)
	}
}

// Concurrent routers against a concurrent scheduler: every packet is
// either delivered through Fill or still queued or dropped, never lost
// or duplicated.
func TestConcurrentRouteAndSchedule(t *testing.T) {
	f := New(2, 32)
	var wg sync.WaitGroup
	const n = 2000
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			f.RoutePacket(i%2, Packet{Bits: pkt(i), Class: Class(i % NumClasses)})
		}
	}()
	delivered := 0
	for i := 0; i < n; i++ {
		delivered += f.Schedule(FIFO{}, i%2, 2, func(Packet) bool { return true })
	}
	wg.Wait()
	for b := 0; b < 2; b++ {
		delivered += len(drain(f, b))
	}
	if _, dropped := totals(f); delivered+dropped != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", delivered, dropped, n)
	}
}

// A shared stateful scheduler must survive concurrent fills of
// different beams: the shard locks serialize per beam only, so DRR
// guards its own per-beam state (raced here under -race).
func TestConcurrentDRRFillsAcrossBeams(t *testing.T) {
	d, err := NewDRR(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const beams, rounds = 4, 300
	f := New(beams, 8)
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for b := 0; b < beams; b++ {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f.RoutePacket(b, Packet{Bits: pkt(i), Class: Class(i % NumClasses)})
				f.Schedule(d, b, 2, func(Packet) bool {
					delivered.Add(1)
					return true
				})
			}
		}()
	}
	wg.Wait()
	queued := 0
	for b := 0; b < beams; b++ {
		queued += f.QueueDepth(b)
	}
	if _, dropped := totals(f); int(delivered.Load())+queued+dropped != beams*rounds {
		t.Fatalf("delivered %d + queued %d + dropped %d != routed %d",
			delivered.Load(), queued, dropped, beams*rounds)
	}
}

// FIFO across classes is arrival order — the property that makes a
// single-class fabric run bit-identical to the pre-fabric engine queue.
func TestFIFOArrivalOrderAcrossClasses(t *testing.T) {
	f := New(1, 0)
	order := []Class{ClassBE, ClassEF, ClassAF, ClassEF, ClassBE}
	for i, c := range order {
		f.RoutePacket(0, Packet{Bits: pkt(i), Class: c, Ingress: i})
	}
	var got []int
	f.Schedule(FIFO{}, 0, len(order), func(p Packet) bool {
		got = append(got, p.Ingress)
		return true
	})
	for i, g := range got {
		if g != i {
			t.Fatalf("FIFO emitted %v, want arrival order", got)
		}
	}
	if len(got) != len(order) {
		t.Fatalf("FIFO emitted %d of %d", len(got), len(order))
	}
}

// An emit that consumes no slot (the re-encode-drop case) discards the
// packet without using budget, and the fill keeps going.
func TestScheduleEmitRejectUsesNoSlot(t *testing.T) {
	f := New(1, 0)
	for i := 0; i < 4; i++ {
		route(f, 0, pkt(i))
	}
	calls := 0
	used := f.Schedule(FIFO{}, 0, 2, func(p Packet) bool {
		calls++
		return p.Bits[1]%2 == 1 // reject even ids
	})
	if used != 2 || calls != 4 {
		t.Fatalf("used %d slots over %d pops, want 2 over 4", used, calls)
	}
	if f.QueueDepth(0) != 0 {
		t.Fatal("rejected packets were re-queued")
	}
}

// Strict priority starves best effort under saturated EF — documented —
// and a BE floor bounds the starvation to exactly the reserved slots.
func TestStrictPriorityStarvationAndFloor(t *testing.T) {
	run := func(floor int) (ef, be int) {
		f := New(1, 64)
		s := StrictPriority{BEFloor: floor}
		for frame := 0; frame < 20; frame++ {
			// EF saturates the 4-slot budget on its own; BE offers 2.
			for i := 0; i < 4; i++ {
				f.RoutePacket(0, Packet{Bits: pkt(i), Class: ClassEF})
			}
			for i := 0; i < 2; i++ {
				f.RoutePacket(0, Packet{Bits: pkt(i), Class: ClassBE})
			}
			f.Schedule(s, 0, 4, func(p Packet) bool {
				if p.Class == ClassEF {
					ef++
				} else {
					be++
				}
				return true
			})
		}
		return ef, be
	}
	ef, be := run(0)
	if be != 0 {
		t.Fatalf("unfloored strict delivered %d BE packets under EF saturation", be)
	}
	if ef != 80 {
		t.Fatalf("strict delivered %d EF packets, want 80", ef)
	}
	ef, be = run(1)
	if be != 20 {
		t.Fatalf("BE floor 1 delivered %d BE packets over 20 frames, want 20", be)
	}
	if ef != 60 {
		t.Fatalf("floored strict delivered %d EF packets, want 60", ef)
	}
}

// DRR shares converge to the configured weights over a sustained
// saturated run, within tolerance, and deficits persist across frames.
func TestDRRShareConvergence(t *testing.T) {
	d, err := NewDRR(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := New(1, 0)
	var got [NumClasses]int
	const frames, slots = 200, 5
	for frame := 0; frame < frames; frame++ {
		// Keep every class saturated.
		for c := Class(0); c < NumClasses; c++ {
			for f.ClassQueueDepth(0, c) < 2*slots {
				f.RoutePacket(0, Packet{Bits: pkt(frame), Class: c})
			}
		}
		if used := f.Schedule(d, 0, slots, func(p Packet) bool {
			got[p.Class]++
			return true
		}); used != slots {
			t.Fatalf("frame %d: filled %d of %d slots under saturation", frame, used, slots)
		}
	}
	total := frames * slots
	want := map[Class]float64{ClassEF: 4.0 / 7, ClassAF: 2.0 / 7, ClassBE: 1.0 / 7}
	for c, w := range want {
		share := float64(got[c]) / float64(total)
		if diff := share - w; diff > 0.02 || diff < -0.02 {
			t.Fatalf("class %s share %.3f, want %.3f ±0.02 (served %v)", c, share, w, got)
		}
	}
}

// DRR validation: negative or all-zero weights are rejected; a
// zero-weight class is never served while weighted classes queue.
func TestDRRWeightValidationAndZeroWeight(t *testing.T) {
	if _, err := NewDRR(-1, 1, 1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewDRR(0, 0, 0); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	d, err := NewDRR(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := New(1, 0)
	for i := 0; i < 4; i++ {
		f.RoutePacket(0, Packet{Bits: pkt(i), Class: ClassEF})
		f.RoutePacket(0, Packet{Bits: pkt(i), Class: ClassAF})
	}
	served := map[Class]int{}
	f.Schedule(d, 0, 4, func(p Packet) bool {
		served[p.Class]++
		return true
	})
	if served[ClassAF] != 0 {
		t.Fatalf("zero-weight AF served %d packets", served[ClassAF])
	}
	if served[ClassEF] == 0 {
		t.Fatal("weighted EF not served")
	}
}

// The steady-state route→schedule→fill path must not allocate: bounded
// rings are preallocated at Adopt and packets move by value.
func TestSteadyStatePathAllocFree(t *testing.T) {
	const beams, depth, slots = 3, 16, 4
	f := New(beams, 0)
	f.Adopt(depth)
	payloads := make([][]byte, slots*beams)
	for i := range payloads {
		payloads[i] = pkt(i)
	}
	grid := make([][]byte, slots)
	emit := func(p Packet) bool {
		grid[0] = p.Bits
		return true
	}
	sched := FIFO{}
	frame := func() {
		for b := 0; b < beams; b++ {
			for s := 0; s < slots; s++ {
				f.RoutePacket(b, Packet{Bits: payloads[b*slots+s], Class: Class(s % NumClasses)})
			}
		}
		for b := 0; b < beams; b++ {
			f.Schedule(sched, b, slots, emit)
		}
	}
	frame() // warm up
	if avg := testing.AllocsPerRun(100, frame); avg != 0 {
		t.Fatalf("steady-state route→schedule→fill allocates %.1f per frame", avg)
	}
}

// Scheduler names are stable spec-level identifiers.
func TestSchedulerNames(t *testing.T) {
	d, _ := NewDRR(4, 2, 1)
	for _, tc := range []struct {
		s    Scheduler
		want string
	}{
		{FIFO{}, "fifo"},
		{StrictPriority{}, "strict"},
		{StrictPriority{BEFloor: 2}, "strict+be2"},
		{d, "drr-4/2/1"},
	} {
		if got := tc.s.Name(); got != tc.want {
			t.Fatalf("scheduler name %q, want %q", got, tc.want)
		}
	}
}

// Class parsing round-trips the spec-level names and rejects junk.
func TestClassParseRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Fatalf("round trip %v: %v %v", c, got, err)
		}
	}
	if c, err := ParseClass(""); err != nil || c != ClassBE {
		t.Fatalf("empty class: %v %v", c, err)
	}
	if _, err := ParseClass("gold"); err == nil {
		t.Fatal("unknown class accepted")
	}
	if fmt.Sprint(ClassEF, ClassAF, ClassBE) != "ef af be" {
		t.Fatal("class names drifted")
	}
}
