package telemetry

import "runtime"

// RuntimeSampler snapshots Go runtime health into a registry — the
// software payload's equivalent of the FPGA housekeeping telemetry.
// Sample is meant to run once per flush interval (ReadMemStats stops
// the world briefly; per-frame would be obscene, per-flush is noise).
type RuntimeSampler struct {
	goroutines  *Gauge   // runtime.goroutines
	heapAlloc   *Gauge   // runtime.heap_alloc_bytes
	heapSys     *Gauge   // runtime.heap_sys_bytes
	heapObjects *Gauge   // runtime.heap_objects
	totalAlloc  *Counter // runtime.total_alloc_bytes (cumulative)
	gcCount     *Counter // runtime.gc_count (cumulative)
	gcPause     *Timer   // runtime.gc_pause_ns (per-interval distribution)

	lastTotalAlloc uint64
	lastNumGC      uint32
}

// NewRuntimeSampler registers the runtime metric set on reg.
func NewRuntimeSampler(reg *Registry) *RuntimeSampler {
	return &RuntimeSampler{
		goroutines:  reg.Gauge("runtime.goroutines"),
		heapAlloc:   reg.Gauge("runtime.heap_alloc_bytes"),
		heapSys:     reg.Gauge("runtime.heap_sys_bytes"),
		heapObjects: reg.Gauge("runtime.heap_objects"),
		totalAlloc:  reg.Counter("runtime.total_alloc_bytes"),
		gcCount:     reg.Counter("runtime.gc_count"),
		gcPause:     reg.Timer("runtime.gc_pause_ns"),
	}
}

// Sample reads the runtime and records: heap and goroutine gauges,
// cumulative allocation and GC-cycle counters, and one gc_pause_ns
// observation per GC cycle completed since the previous Sample (from
// the MemStats pause ring; cycles beyond the ring's 256 entries are
// necessarily lost, which only matters if sampling is slower than 256
// GCs per interval).
func (s *RuntimeSampler) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.goroutines.Set(float64(runtime.NumGoroutine()))
	s.heapAlloc.Set(float64(ms.HeapAlloc))
	s.heapSys.Set(float64(ms.HeapSys))
	s.heapObjects.Set(float64(ms.HeapObjects))
	if d := ms.TotalAlloc - s.lastTotalAlloc; d > 0 {
		s.totalAlloc.Add(int64(d))
		s.lastTotalAlloc = ms.TotalAlloc
	}
	newGCs := min(ms.NumGC-s.lastNumGC, uint32(len(ms.PauseNs)))
	for i := uint32(0); i < newGCs; i++ {
		// PauseNs is a circular buffer indexed by GC cycle number.
		pause := ms.PauseNs[(ms.NumGC-i+uint32(len(ms.PauseNs))-1)%uint32(len(ms.PauseNs))]
		s.gcPause.Observe(float64(pause))
	}
	if ms.NumGC != s.lastNumGC {
		s.gcCount.Add(int64(ms.NumGC - s.lastNumGC))
		s.lastNumGC = ms.NumGC
	}
}
