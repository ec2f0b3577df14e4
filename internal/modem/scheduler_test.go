package modem

import (
	"testing"
	"testing/quick"
)

func TestSchedulerAllocateRelease(t *testing.T) {
	cfg := FrameConfig{Carriers: 2, Slots: 3, SlotSymbols: 100, GuardSymbols: 8}
	s := NewSlotScheduler(cfg)
	if s.Capacity() != 6 {
		t.Fatal("capacity")
	}
	a, err := s.Request("term-1", 2)
	if err != nil || len(a) != 2 {
		t.Fatalf("request: %v %v", a, err)
	}
	if s.Allocated() != 2 {
		t.Fatal("allocation count")
	}
	b, err := s.Request("term-2", 4)
	if err != nil || len(b) != 4 {
		t.Fatalf("second request: %v", err)
	}
	// No overlap.
	seen := map[SlotAssignment]bool{}
	for _, x := range append(a, b...) {
		if seen[x] {
			t.Fatalf("cell %v double-booked", x)
		}
		seen[x] = true
	}
	// Full.
	if _, err := s.Request("term-3", 1); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if s.Release("term-1") != 2 || s.Allocated() != 4 {
		t.Fatal("release")
	}
	if _, err := s.Request("term-3", 2); err != nil {
		t.Fatalf("reuse after release: %v", err)
	}
}

// A frame's grants reuse each terminal's holdings: a warm Release and
// Request allocate nothing.
func TestSchedulerRegrantAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s := NewSlotScheduler(FrameConfig{Carriers: 2, Slots: 3, SlotSymbols: 100, GuardSymbols: 8})
	regrant := func() {
		for _, term := range []string{"a", "b"} {
			s.Release(term)
			if cells, err := s.Request(term, 3); err != nil || len(cells) != 3 {
				t.Fatalf("%s: %v %v", term, cells, err)
			}
		}
	}
	regrant()
	if a := testing.AllocsPerRun(20, regrant); a != 0 {
		t.Fatalf("warm regrant allocates %v times, want 0", a)
	}
}

func TestSchedulerInvalidRequest(t *testing.T) {
	s := NewSlotScheduler(DefaultFrameConfig())
	if _, err := s.Request("t", 0); err == nil {
		t.Fatal("zero-cell request accepted")
	}
}

func TestPropertySchedulerNeverDoubleBooks(t *testing.T) {
	f := func(reqs []uint8) bool {
		cfg := FrameConfig{Carriers: 3, Slots: 4, SlotSymbols: 10, GuardSymbols: 1}
		s := NewSlotScheduler(cfg)
		seen := map[SlotAssignment]string{}
		for i, r := range reqs {
			n := int(r%4) + 1
			term := string(rune('a' + i%20))
			cells, err := s.Request(term, n)
			if err != nil {
				continue
			}
			for _, c := range cells {
				if prev, taken := seen[c]; taken && prev != "" {
					return false
				}
				seen[c] = term
			}
			if i%3 == 2 {
				s.Release(term)
				for c, owner := range seen {
					if owner == term {
						delete(seen, c)
					}
				}
			}
		}
		return s.Allocated() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
