// Package pipeline provides the concurrency substrate of the per-carrier
// receive path. The paper's payload runs its digital functions (DEMUX,
// DEMOD, DECOD) as a bank of identical per-carrier chains in parallel on
// FPGAs; this package models that parallelism in software with a bounded
// worker pool sized to the host (GOMAXPROCS), so an MF-TDMA frame's
// carriers are processed concurrently while remaining bit-identical to a
// sequential per-carrier loop.
//
// Determinism contract: ForEach callers must ensure fn(i) touches only
// state owned by index i (its own DDC, demodulator, output slot). Under
// that contract the schedule cannot influence any output value, so the
// concurrent result equals the sequential one bit for bit.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the worker-pool width: the number of per-carrier
// chains processed concurrently. It follows GOMAXPROCS, the software
// analogue of "one FPGA chain per carrier, as many as the board holds".
func Workers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n) on a pool of
// min(Workers(), n) goroutines and returns when all calls are done.
// Each index must write only its own state (see the package contract).
// A panic in any fn is re-raised on the caller's goroutine.
func ForEach(n int, fn func(int)) { ForEachN(Workers(), n, fn) }

// ForEachN is ForEach with an explicit worker count; workers <= 1 runs
// the loop inline with no goroutines (the sequential reference path used
// by the equivalence tests and benchmarks).
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
	var (
		next       atomic.Int64
		mu         sync.Mutex
		firstPanic any
		havePanic  bool
		wg         sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if !havePanic {
								havePanic, firstPanic = true, r
							}
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if havePanic {
		// Re-raise the original value so callers can still inspect it
		// (the worker's own stack is lost to the recover).
		panic(firstPanic)
	}
}
