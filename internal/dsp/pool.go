package dsp

import (
	"math/bits"
	"sync"
)

// Block allocator for sample vectors: recycling per-burst and per-frame
// blocks keeps the hot path (mix, filter, decimate) allocation-free
// however many carriers are in flight. Blocks are kept by size class
// (the bit length of their capacity), so a wideband block and a burst's
// worth of symbols never answer each other's requests, on a short free
// list rather than in a sync.Pool: every collection empties a sync.Pool,
// and a frame that makes several collections' worth of garbage elsewhere
// (the turbo decoder's 6 MB) would buy its blocks anew every frame.
type vecClass struct {
	mu   sync.Mutex
	free []Vec // at most vecClassKeep; blocks beyond go to the collector
}

const vecClassKeep = 16

var vecClasses [bits.UintSize + 1]vecClass

// GetVec returns a length-n block, recycled when its size class has one
// that is large enough. Contents are unspecified; callers must overwrite
// every sample (all pipeline stages do).
func GetVec(n int) Vec {
	if v := recycled(n); v != nil {
		return v
	}
	return make(Vec, n)
}

// GetZeroVec is GetVec for a block that must start all zero: a recycled
// one is cleared, and a new one is zero with its pages not yet touched.
func GetZeroVec(n int) Vec {
	if v := recycled(n); v != nil {
		clear(v)
		return v
	}
	return make(Vec, n)
}

// recycled takes a free length-n block of n's size class, or returns nil;
// a miss drops the class's oldest block (too small), so the block the
// caller allocates instead is kept when it comes back.
func recycled(n int) Vec {
	c := &vecClasses[bits.Len(uint(n))]
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.free) - 1; i >= 0; i-- { // newest first: warmest in cache
		if v := c.free[i]; cap(v) >= n {
			last := len(c.free) - 1
			c.free[i], c.free[last] = c.free[last], nil
			c.free = c.free[:last]
			return v[:n]
		}
	}
	if last := len(c.free) - 1; last >= 0 { // all too small: drop the oldest
		c.free[0], c.free[last], c.free = c.free[last], nil, c.free[:last]
	}
	return nil
}

// PutVec recycles a block obtained from GetVec (or anywhere else — the
// allocator does not care about provenance). The caller must not use v
// after the call.
func PutVec(v Vec) {
	if cap(v) == 0 {
		return
	}
	c := &vecClasses[bits.Len(uint(cap(v)))]
	c.mu.Lock()
	if len(c.free) < vecClassKeep {
		c.free = append(c.free, v[:0])
	}
	c.mu.Unlock()
}
