// Package pipeline is the concurrency substrate of the payload model.
// The paper's payload runs its digital functions (DEMUX, DEMOD, DECOD,
// the DUC bank) as banks of identical chains in parallel on FPGAs; this
// package models that with a worker pool sized to the host (GOMAXPROCS).
//
// Determinism contract: ForEach callers must ensure fn(i) touches only
// state owned by index i (its own DDC, demodulator, output slot or tile).
// Under that contract the schedule cannot influence any output value, so
// the concurrent result equals the sequential one bit for bit.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the worker-pool width, GOMAXPROCS: the software
// analogue of "one FPGA chain each, as many as the board holds".
func Workers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n) on a pool of
// min(Workers(), n) goroutines and returns when all calls are done.
// Each index must write only its own state (see the package contract).
// A panic in any fn is re-raised on the caller's goroutine.
func ForEach(n int, fn func(int)) { ForEachN(Workers(), n, fn) }

// ForEachN is ForEach with an explicit worker count; workers <= 1 runs
// the loop inline (the sequential reference of the equivalence tests).
// The caller only waits: working as one of the workers measured slower,
// because an idle core does not steal a just-spawned goroutine at once.
func ForEachN(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f := fanOuts.Get().(*fanOut)
	f.next.Store(0)
	f.n, f.fn = n, fn
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work(f)
	}
	f.wg.Wait()
	panicked, r := f.panicked.Load(), f.firstPanic
	*f = fanOut{}
	fanOuts.Put(f)
	if panicked {
		// Re-raise the original value so callers can still inspect it
		// (the worker's own stack is lost to the recover).
		panic(r)
	}
}

// fanOut is one ForEachN call's shared state, pooled so that a call
// allocates only its goroutine starts.
type fanOut struct {
	next       atomic.Int64
	n          int
	fn         func(int)
	wg         sync.WaitGroup
	panicked   atomic.Bool // firstPanic is set
	firstPanic any
}

var fanOuts = sync.Pool{New: func() any { return new(fanOut) }}

// work is one worker: it takes the next index until none is left.
func work(f *fanOut) {
	defer f.wg.Done()
	for i := int(f.next.Add(1)) - 1; i < f.n; i = int(f.next.Add(1)) - 1 {
		func() {
			defer func() {
				if r := recover(); r != nil && f.panicked.CompareAndSwap(false, true) {
					f.firstPanic = r
				}
			}()
			f.fn(i)
		}()
	}
}
