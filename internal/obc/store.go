// Package obc implements the on-board processor controller of §3.1-3.2:
// the equipment that receives reconfiguration data from the platform
// software, stages binary files in on-board memory (optionally managing a
// bitstream library), drives each FPGA's configuration port through the
// paper's five-step procedure, runs the validation service (CRC auto-test
// reported over telemetry), and falls back to the previous configuration
// when validation fails.
package obc

import "errors"

// MemoryStore is the on-board memory holding binary configuration files.
// With a capacity limit it behaves as the optional "binary files library"
// of §3.2: keeping files on board avoids ground re-uploads at the cost of
// memory, evicting least-recently-used files when full.
type MemoryStore struct {
	capacity int // bytes; 0 = unlimited
	files    map[string]*storedFile
	clock    int64

	// Evictions counts files dropped to make room.
	Evictions int
}

type storedFile struct {
	data     []byte
	lastUsed int64
}

// NewMemoryStore creates a store with a byte capacity (0 = unlimited).
func NewMemoryStore(capacity int) *MemoryStore {
	return &MemoryStore{capacity: capacity, files: make(map[string]*storedFile)}
}

// UsedBytes returns the current occupancy.
func (m *MemoryStore) UsedBytes() int {
	t := 0
	for _, f := range m.files {
		t += len(f.data)
	}
	return t
}

// Put stages a file, evicting LRU entries if needed. It fails if the file
// alone exceeds capacity.
func (m *MemoryStore) Put(name string, data []byte) error {
	if m.capacity > 0 && len(data) > m.capacity {
		return errors.New("obc: file exceeds memory capacity")
	}
	m.clock++
	m.files[name] = &storedFile{data: append([]byte{}, data...), lastUsed: m.clock}
	m.evict()
	return nil
}

// Get retrieves a staged file and refreshes its LRU position.
func (m *MemoryStore) Get(name string) ([]byte, bool) {
	f, ok := m.files[name]
	if !ok {
		return nil, false
	}
	m.clock++
	f.lastUsed = m.clock
	return f.data, true
}

// evict removes LRU files (never the most recent) until under capacity.
func (m *MemoryStore) evict() {
	if m.capacity <= 0 {
		return
	}
	for m.UsedBytes() > m.capacity && len(m.files) > 1 {
		var lruName string
		var lru int64 = 1<<62 - 1
		for n, f := range m.files {
			if f.lastUsed < lru {
				lru, lruName = f.lastUsed, n
			}
		}
		delete(m.files, lruName)
		m.Evictions++
	}
}
