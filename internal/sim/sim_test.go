package sim

import "testing"

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("clock %g", s.Now())
	}
}

func TestFIFOAtSameTimestamp(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var hits []float64
	s.Schedule(1, func() {
		hits = append(hits, s.Now())
		s.Schedule(2, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits %v", hits)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(1, func() { count++ })
	s.Schedule(5, func() { count++ })
	s.RunUntil(3)
	if count != 1 || s.Now() != 3 || s.queue.Len() != 1 {
		t.Fatalf("count=%d now=%g pending=%d", count, s.Now(), s.queue.Len())
	}
	s.Run()
	if count != 2 {
		t.Fatal("remaining event not run")
	}
}

func TestNegativeDelayRunsNow(t *testing.T) {
	s := New()
	s.Schedule(2, func() {
		s.Schedule(-5, func() {
			if s.Now() != 2 {
				t.Fatalf("negative delay time %g", s.Now())
			}
		})
	})
	s.Run()
}

func TestMaxEventsGuard(t *testing.T) {
	s := New()
	s.MaxEvents = 10
	var loop func()
	loop = func() { s.Schedule(1, loop) }
	s.Schedule(0, loop)
	s.Run()
	if s.processed != 10 {
		t.Fatalf("processed %d", s.processed)
	}
}
