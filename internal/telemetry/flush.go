package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// Line is the JSON flush schema: one object per flush interval.
// Counters are cumulative over the run, gauges carry their last set
// value, and timers aggregate only the samples of the flushed interval.
// Timer values are nanoseconds by the repo-wide convention. Seq counts
// flushes from 0 and Frame tags the frame clock position (-1 when the
// producer has no frame clock).
type Line struct {
	Seq      int64                 `json:"seq"`
	TS       float64               `json:"ts"` // unix seconds
	Frame    int64                 `json:"frame"`
	Source   string                `json:"source,omitempty"`
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]float64    `json:"gauges,omitempty"`
	Timers   map[string]TimerStats `json:"timers,omitempty"`
}

// Flusher reduces a registry to flush lines on a writer. It is the only
// component that drains timer sample buffers, and it recycles them in
// place, so a run flushes indefinitely in bounded memory. A Flusher is
// not safe for concurrent Flush calls; the record path (the metric
// handles) stays concurrent-safe throughout.
type Flusher struct {
	reg     *Registry
	w       io.Writer
	source  string
	now     func() time.Time
	seq     int64
	scratch []float64
}

// FlusherOption configures a Flusher at construction.
type FlusherOption func(*Flusher)

// WithSource tags every line with a producer name (e.g. "trafficsim").
func WithSource(s string) FlusherOption { return func(fl *Flusher) { fl.source = s } }

// WithClock overrides the timestamp source — tests pin it for
// reproducible lines.
func WithClock(now func() time.Time) FlusherOption { return func(fl *Flusher) { fl.now = now } }

// NewFlusher builds a flusher over reg writing to w.
func NewFlusher(reg *Registry, w io.Writer, opts ...FlusherOption) *Flusher {
	fl := &Flusher{reg: reg, w: w, now: time.Now, scratch: make([]float64, 0, reg.timerCap)}
	for _, o := range opts {
		o(fl)
	}
	return fl
}

// Seq returns the number of flushes emitted so far.
func (fl *Flusher) Seq() int64 { return fl.seq }

// Flush snapshots the registry, writes one flush line, and resets
// every timer's interval buffer. frame tags
// the producer's frame clock (-1 for clock-less producers). Every
// registered key is emitted on every flush — persistent keys are the
// contract downstream differencing relies on — including timers that
// saw no samples this interval (count 0).
func (fl *Flusher) Flush(frame int64) error {
	line := fl.snapshot(frame)
	fl.seq++
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = fl.w.Write(data)
	return err
}

// snapshot reduces the registry to one Line, draining timer intervals.
func (fl *Flusher) snapshot(frame int64) Line {
	r := fl.reg
	line := Line{
		Seq:    fl.seq,
		TS:     float64(fl.now().UnixNano()) / 1e9,
		Frame:  frame,
		Source: fl.source,
	}
	r.mu.Lock()
	counterNames := r.counterNames
	gaugeNames := r.gaugeNames
	timerNames := r.timerNames
	r.mu.Unlock()
	if len(counterNames) > 0 {
		line.Counters = make(map[string]int64, len(counterNames))
		for _, n := range counterNames {
			line.Counters[n] = fl.reg.Counter(n).Value()
		}
	}
	if len(gaugeNames) > 0 {
		line.Gauges = make(map[string]float64, len(gaugeNames))
		for _, n := range gaugeNames {
			line.Gauges[n] = fl.reg.Gauge(n).Value()
		}
	}
	if len(timerNames) > 0 {
		line.Timers = make(map[string]TimerStats, len(timerNames))
		for _, n := range timerNames {
			t := fl.reg.Timer(n)
			samples, overflow := t.drain(fl.scratch)
			line.Timers[n] = reduce(samples, overflow)
			// The drained buffer becomes the scratch handed to the next
			// timer: buffers circulate, nothing re-allocates.
			fl.scratch = samples
		}
	}
	return line
}
