// Package telemetry is the streaming metrics backbone of the closed
// loop: a Registry of named counters, gauges and timers whose record
// path is allocation-free in steady state, a Flusher that reduces the
// registry to one machine-readable JSON line per flush interval, and a
// RuntimeSampler that folds Go runtime health (heap, GC pauses,
// goroutines) into the same registry.
//
// The paper's regenerative payload is instrumented per pipeline stage
// on the FPGA; this package is the software analogue for multi-hour or
// million-frame runs, where the end-of-run traffic.Report is far too
// late. Metric keys are interned once at registration and persist
// across flushes: a counter is cumulative over the run, a gauge carries
// its last set value, and a timer aggregates a bounded per-interval
// sample buffer into min/mean/max/p50/p90/p99 at every flush and then
// recycles the buffer in place — memory stays bounded no matter how
// long the run.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// DefaultTimerCap bounds a timer's per-interval sample buffer. Samples
// past the bound still count (the count stays exact) but fall out of
// the percentile estimate; TimerStats.Dropped reports how many.
const DefaultTimerCap = 2048

// Registry owns the metric namespace of one run. Metrics are created
// through the get-or-create accessors; a name registers exactly one
// kind for the lifetime of the registry, so keys stay stable across
// flushes. All methods are safe for concurrent use; the returned metric
// handles are the hot-path objects callers should retain rather than
// re-looking up per record.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]byte // 'c', 'g', 't'
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	timerCap int

	// ordered names per kind, in registration order, so flush output is
	// reproducible without re-sorting the world each interval.
	counterNames []string
	gaugeNames   []string
	timerNames   []string
}

// RegistryOption configures a Registry at construction.
type RegistryOption func(*Registry)

// WithTimerCap bounds every timer's per-interval sample buffer (default
// DefaultTimerCap).
func WithTimerCap(n int) RegistryOption {
	return func(r *Registry) {
		if n > 0 {
			r.timerCap = n
		}
	}
}

// NewRegistry returns an empty registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{
		kinds:    make(map[string]byte),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		timerCap: DefaultTimerCap,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// claim registers name under kind, or panics on a cross-kind clash — a
// metric name changing kind mid-run is a programming error, not a
// runtime condition to limp through.
func (r *Registry) claim(name string, kind byte) bool {
	if k, ok := r.kinds[name]; ok {
		if k != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %c, requested as %c", name, k, kind))
		}
		return false
	}
	r.kinds[name] = kind
	return true
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, 'c') {
		r.counters[name] = &Counter{}
		r.counterNames = append(r.counterNames, name)
	}
	return r.counters[name]
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, 'g') {
		r.gauges[name] = &Gauge{}
		r.gaugeNames = append(r.gaugeNames, name)
	}
	return r.gauges[name]
}

// Timer returns the timer registered under name, creating it on first
// use with the registry's sample-buffer bound.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claim(name, 't') {
		r.timers[name] = &Timer{samples: make([]float64, 0, r.timerCap)}
		r.timerNames = append(r.timerNames, name)
	}
	return r.timers[name]
}

// Counter is a monotonically accumulating metric (events, cells, bits).
// Its flushed value is cumulative over the run, so a downstream
// consumer can difference any two flushes without having seen the ones
// between.
type Counter struct {
	v atomic.Int64
}

// Add accumulates delta. The record path performs one atomic add — no
// allocation, no lock.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc is Add(1).
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the cumulative count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric (queue depth, heap bytes, goroutines).
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value. The record path performs one atomic
// store — no allocation, no lock.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last set value (zero before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer aggregates a stream of observations (stage durations in
// nanoseconds, by convention) into per-interval distribution stats. The
// sample buffer is bounded: observations past the bound keep the count
// exact but are excluded from the percentile estimate, and the
// flush reports them as Dropped. The buffer's backing array is recycled
// across flushes, so the record path is allocation-free in steady
// state.
type Timer struct {
	mu       sync.Mutex
	samples  []float64
	overflow int64 // interval observations past the sample bound
	count    int64 // cumulative observations over the run
}

// Observe records one sample. The record path is a mutex-guarded append
// into preallocated capacity — no allocation in steady state.
func (t *Timer) Observe(v float64) {
	t.mu.Lock()
	t.count++
	if len(t.samples) < cap(t.samples) {
		t.samples = append(t.samples, v)
	} else {
		t.overflow++
	}
	t.mu.Unlock()
}

// Count returns the cumulative observation count over the run.
func (t *Timer) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// drain swaps the timer's interval state into scratch and resets it for
// the next interval. The returned slice is the timer's former backing
// array; the caller owns it until the next drain, and hands its own
// scratch (same capacity class) in exchange — buffers circulate between
// the timers and the flusher without ever re-allocating.
func (t *Timer) drain(scratch []float64) (samples []float64, overflow int64) {
	t.mu.Lock()
	samples, t.samples = t.samples, scratch[:0]
	overflow, t.overflow = t.overflow, 0
	t.mu.Unlock()
	return samples, overflow
}

// TimerStats is one timer's per-interval aggregate, as flushed. Count
// is every observation of the interval (including Dropped ones beyond
// the sample bound); the distribution stats are computed over the
// sampled subset.
type TimerStats struct {
	Count   int64   `json:"count"`
	Dropped int64   `json:"dropped,omitempty"`
	Min     float64 `json:"min"`
	Mean    float64 `json:"mean"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
}

// reduce sorts samples in place (via the shared stats.Summarize
// reduction — the one nearest-rank implementation campaign reducers use
// too) and computes the interval stats.
func reduce(samples []float64, overflow int64) TimerStats {
	st := TimerStats{Count: int64(len(samples)) + overflow, Dropped: overflow}
	if len(samples) == 0 {
		return st
	}
	s := stats.Summarize(samples)
	st.Min, st.Mean, st.Max = s.Min, s.Mean, s.Max
	st.P50, st.P90, st.P99 = s.P50, s.P90, s.P99
	return st
}
