package pipeline

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			counts := make([]int32, n)
			ForEachN(workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForEachMatchesSequential(t *testing.T) {
	// Pure per-index functions must give schedule-independent results.
	n := 500
	seq := make([]int, n)
	conc := make([]int, n)
	f := func(out []int) func(int) {
		return func(i int) { out[i] = i*i + 7 }
	}
	ForEachN(1, n, f(seq))
	ForEachN(8, n, f(conc))
	for i := range seq {
		if seq[i] != conc[i] {
			t.Fatalf("index %d: %d != %d", i, conc[i], seq[i])
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic must reach the caller")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic payload lost: %v", r)
		}
	}()
	ForEachN(4, 10, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatal("worker pool must have at least one worker")
	}
}

// A fan-out's shared state is pooled: a call allocates only the starts
// of its worker goroutines, one each.
func TestForEachNAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool recycling is randomized under the race detector")
	}
	var sink [16]int
	fn := func(i int) { sink[i]++ }
	for _, workers := range []int{1, 2, 4} {
		ForEachN(workers, len(sink), fn)
		want := float64(workers)
		if workers == 1 {
			want = 0
		}
		if n := testing.AllocsPerRun(100, func() { ForEachN(workers, len(sink), fn) }); n > want {
			t.Fatalf("ForEachN over %d workers allocates %.1f/op, want at most %v", workers, n, want)
		}
	}
}
