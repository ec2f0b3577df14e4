package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// refPercentile is the independent nearest-rank reference the Timer
// percentiles are validated against: the smallest sample with at least
// q·n samples at or below it.
func refPercentile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q * float64(len(s))))
	if idx < 1 {
		idx = 1
	}
	return s[idx-1]
}

// TestTimerPercentilesAgainstReference checks the flushed timer stats
// against the sorted reference on adversarial distributions: constants,
// two-point masses, sorted/reverse ramps, heavy duplication, singleton
// buffers, and uniform noise.
func TestTimerPercentilesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]float64{
		"single":   {42},
		"pair":     {2, 1},
		"constant": repeat(3.5, 100),
		"twopoint": append(repeat(1, 99), 1000),
		"ramp":     ramp(1, 128),
		"reverse":  reverse(ramp(1, 128)),
		"dupheavy": append(append(repeat(5, 50), repeat(7, 49)...), 100),
		"uniform":  randoms(rng, 733),
	}
	for name, samples := range cases {
		reg := NewRegistry()
		tm := reg.Timer("t")
		for _, v := range samples {
			tm.Observe(v)
		}
		var buf bytes.Buffer
		fl := NewFlusher(reg, &buf)
		if err := fl.Flush(0); err != nil {
			t.Fatal(err)
		}
		var line Line
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := line.Timers["t"]
		if st.Count != int64(len(samples)) {
			t.Fatalf("%s: count %d, want %d", name, st.Count, len(samples))
		}
		wantMin, wantMax, sum := samples[0], samples[0], 0.0
		for _, v := range samples {
			wantMin = math.Min(wantMin, v)
			wantMax = math.Max(wantMax, v)
			sum += v
		}
		if st.Min != wantMin || st.Max != wantMax {
			t.Fatalf("%s: min/max %v/%v, want %v/%v", name, st.Min, st.Max, wantMin, wantMax)
		}
		if mean := sum / float64(len(samples)); math.Abs(st.Mean-mean) > 1e-9*math.Abs(mean) {
			t.Fatalf("%s: mean %v, want %v", name, st.Mean, mean)
		}
		for _, pc := range []struct {
			q    float64
			got  float64
			name string
		}{{0.50, st.P50, "p50"}, {0.90, st.P90, "p90"}, {0.99, st.P99, "p99"}} {
			if want := refPercentile(samples, pc.q); pc.got != want {
				t.Fatalf("%s: %s = %v, want %v", name, pc.name, pc.got, want)
			}
		}
	}
}

func repeat(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func ramp(start float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = start + float64(i)
	}
	return s
}

func reverse(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

func randoms(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64() * 1e6
	}
	return s
}

// TestFlushIntervalBoundaries pins the interval semantics: timers reset
// per flush (samples do not leak across intervals), an empty interval
// still emits the key with count 0, counters stay cumulative, and
// observations past the sample bound are counted and reported dropped.
func TestFlushIntervalBoundaries(t *testing.T) {
	reg := NewRegistry(WithTimerCap(4))
	tm := reg.Timer("stage")
	c := reg.Counter("cells")
	var buf bytes.Buffer
	fl := NewFlusher(reg, &buf)

	// Interval 1: overflow the 4-sample bound with 6 observations.
	for i := 1; i <= 6; i++ {
		tm.Observe(float64(i))
	}
	c.Add(10)
	if err := fl.Flush(0); err != nil {
		t.Fatal(err)
	}
	// Interval 2: empty.
	c.Add(5)
	if err := fl.Flush(1); err != nil {
		t.Fatal(err)
	}
	// Interval 3: fresh samples only.
	tm.Observe(100)
	if err := fl.Flush(2); err != nil {
		t.Fatal(err)
	}

	lines := decodeLines(t, buf.String())
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	st := lines[0].Timers["stage"]
	if st.Count != 6 || st.Dropped != 2 {
		t.Fatalf("interval 1: count %d dropped %d, want 6/2", st.Count, st.Dropped)
	}
	if st.Max != 4 { // samples 5 and 6 fell past the bound
		t.Fatalf("interval 1: max %v, want 4 (overflow excluded from distribution)", st.Max)
	}
	st = lines[1].Timers["stage"]
	if st.Count != 0 || st.Dropped != 0 || st.Min != 0 || st.Max != 0 {
		t.Fatalf("interval 2 not empty: %+v", st)
	}
	st = lines[2].Timers["stage"]
	if st.Count != 1 || st.Min != 100 || st.Max != 100 {
		t.Fatalf("interval 3 leaked earlier samples: %+v", st)
	}
	if lines[0].Counters["cells"] != 10 || lines[1].Counters["cells"] != 15 || lines[2].Counters["cells"] != 15 {
		t.Fatalf("counter not cumulative: %v %v %v",
			lines[0].Counters["cells"], lines[1].Counters["cells"], lines[2].Counters["cells"])
	}
	if tm.Count() != 7 {
		t.Fatalf("cumulative timer count %d, want 7", tm.Count())
	}
}

// TestKeyPersistenceAcrossFlushes pins the persistent-key contract:
// every registered metric appears in every subsequent flush, touched or
// not, and seq increments per flush.
func TestKeyPersistenceAcrossFlushes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a")
	reg.Gauge("b").Set(2.5)
	reg.Timer("c")
	var buf bytes.Buffer
	fl := NewFlusher(reg, &buf, WithSource("test"), WithClock(func() time.Time { return time.Unix(1000, 0) }))
	for i := int64(0); i < 3; i++ {
		if err := fl.Flush(i * 10); err != nil {
			t.Fatal(err)
		}
	}
	lines := decodeLines(t, buf.String())
	for i, ln := range lines {
		if ln.Seq != int64(i) {
			t.Fatalf("line %d: seq %d", i, ln.Seq)
		}
		if ln.Frame != int64(i*10) || ln.Source != "test" || ln.TS != 1000 {
			t.Fatalf("line %d: frame/source/ts %+v", i, ln)
		}
		if _, ok := ln.Counters["a"]; !ok {
			t.Fatalf("line %d lost counter a", i)
		}
		if v, ok := ln.Gauges["b"]; !ok || v != 2.5 {
			t.Fatalf("line %d lost gauge b (got %v)", i, v)
		}
		if _, ok := ln.Timers["c"]; !ok {
			t.Fatalf("line %d lost timer c", i)
		}
	}
}

// TestRecordPathAllocs pins the record path — Counter.Add, Gauge.Set,
// Timer.Observe warm — at zero allocations, including across flush
// cycles (the drained buffers must recycle, not re-allocate).
func TestRecordPathAllocs(t *testing.T) {
	reg := NewRegistry(WithTimerCap(64))
	c := reg.Counter("c")
	g := reg.Gauge("g")
	tm := reg.Timer("t")
	fl := NewFlusher(reg, discardWriter{})
	// Warm: fill past the bound and flush, so the buffer swap has
	// circulated at least once.
	for i := 0; i < 100; i++ {
		tm.Observe(float64(i))
	}
	if err := fl.Flush(0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Add(3)
		g.Set(1.5)
		tm.Observe(7)
	}); allocs != 0 {
		t.Fatalf("record path allocates %v per run, want 0", allocs)
	}
	// And the record path stays clean across flush boundaries.
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 70; i++ { // past the 64-sample bound
			tm.Observe(float64(i))
		}
		if err := fl.Flush(1); err != nil {
			t.Fatal(err)
		}
	}); allocs > 40 { // the flush line itself allocates; the samples must not
		t.Fatalf("flush cycle allocates %v per run", allocs)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestCrossKindPanics pins the kind-clash contract.
func TestCrossKindPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x")
}

// TestRuntimeSampler smokes the runtime metric set: gauges populate,
// and a forced GC shows up in the pause timer and cycle counter.
func TestRuntimeSampler(t *testing.T) {
	reg := NewRegistry()
	rs := NewRuntimeSampler(reg)
	rs.Sample()
	if reg.Gauge("runtime.goroutines").Value() < 1 {
		t.Fatal("goroutine gauge empty")
	}
	if reg.Gauge("runtime.heap_alloc_bytes").Value() <= 0 {
		t.Fatal("heap gauge empty")
	}
	base := reg.Timer("runtime.gc_pause_ns").Count()
	forceGC()
	rs.Sample()
	if got := reg.Timer("runtime.gc_pause_ns").Count(); got <= base {
		t.Fatalf("gc pause count %d after forced GC, want > %d", got, base)
	}
	if reg.Counter("runtime.gc_count").Value() < 1 {
		t.Fatal("gc_count counter empty after forced GC")
	}
}

func forceGC() {
	for i := 0; i < 2; i++ {
		runtime.GC()
	}
}

func decodeLines(t *testing.T, s string) []Line {
	t.Helper()
	var lines []Line
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		var ln Line
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ln); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	return lines
}
