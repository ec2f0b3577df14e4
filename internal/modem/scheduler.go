package modem

import "fmt"

// SlotScheduler allocates MF-TDMA (carrier, slot) cells to terminals —
// the resource-assignment function the NCC performs for the return link.
// Allocation is first-fit by carrier then slot; a terminal may hold
// several cells (higher rate), and cells are returned on release.
type SlotScheduler struct {
	cfg   FrameConfig
	owner [][]string // [carrier][slot] -> terminal id ("" = free)
	held  map[string][]SlotAssignment
}

// NewSlotScheduler creates an empty plan for the frame configuration.
func NewSlotScheduler(cfg FrameConfig) *SlotScheduler {
	s := &SlotScheduler{cfg: cfg, held: make(map[string][]SlotAssignment)}
	s.owner = make([][]string, cfg.Carriers)
	for c := range s.owner {
		s.owner[c] = make([]string, cfg.Slots)
	}
	return s
}

// Capacity returns the total cell count per frame.
func (s *SlotScheduler) Capacity() int { return s.cfg.Carriers * s.cfg.Slots }

// Allocated returns the number of assigned cells.
func (s *SlotScheduler) Allocated() int {
	n := 0
	for _, row := range s.owner {
		for _, t := range row {
			if t != "" {
				n++
			}
		}
	}
	return n
}

// Request allocates n cells to the terminal, returning the assignments
// or an error when the frame is full. The returned slice is the tail of
// the terminal's holdings, valid until its next Request or Release.
func (s *SlotScheduler) Request(terminal string, n int) ([]SlotAssignment, error) {
	if n < 1 {
		return nil, fmt.Errorf("modem: request of %d cells", n)
	}
	if s.Capacity()-s.Allocated() < n {
		return nil, fmt.Errorf("modem: frame full (%d/%d allocated)", s.Allocated(), s.Capacity())
	}
	held := s.held[terminal]
	base := len(held)
	for c := 0; c < s.cfg.Carriers && len(held)-base < n; c++ {
		for sl := 0; sl < s.cfg.Slots && len(held)-base < n; sl++ {
			if s.owner[c][sl] == "" {
				s.owner[c][sl] = terminal
				held = append(held, SlotAssignment{Carrier: c, Slot: sl})
			}
		}
	}
	s.held[terminal] = held
	return held[base:len(held):len(held)], nil
}

// Release frees every cell the terminal holds, keeping their capacity.
func (s *SlotScheduler) Release(terminal string) int {
	cells := s.held[terminal]
	for _, a := range cells {
		s.owner[a.Carrier][a.Slot] = ""
	}
	s.held[terminal] = cells[:0]
	return len(cells)
}
