package fec

import "math"

// Fixed-point soft-decision Viterbi decoding.
//
// The trellis state is the K-1 most recent input bits (newest in the MSB);
// for input b the full register is b<<(K-1)|state and the successor state
// is that register shifted right by one. States 2j and 2j+1 therefore share
// their two successors, j (input 0) and j+half (input 1) with half =
// 2^(K-2): one butterfly per j, four branches, two compare-selects.
//
// Quantisation: the codeword's LLRs are scaled once so the largest finite
// magnitude maps to quantMax and rounded to int32. NaN becomes 0 (an
// erasure), ±Inf clamps to ±quantMax. quantMax is llrQuantMax, lowered for
// long codewords so that len(llr)·quantMax ≤ maxPathMetric: no path metric
// or metric difference can leave int32, so there is no renormalisation.
//
// Tie rule: equal metrics keep the even predecessor 2j. That is what a
// float decoder visiting states in ascending order with a strict '>' does,
// so on hard-decision (equal-magnitude) input, where ties are exact in both
// arithmetics, the two decoders agree bit for bit.

// llrQuantMax is the magnitude the largest LLR of a codeword quantises to.
const llrQuantMax = 32767

// maxPathMetric bounds B = len(llr)·quantMax, the largest magnitude a path
// from state 0 can accumulate. The other start states begin at -(2B+1) —
// below every true path at every step, so no reachability test is needed —
// and sink to at most -(3B+1); the widest compare-select difference is
// 4B+1, which must fit int32.
const maxPathMetric = (math.MaxInt32 - 1) / 4

// viterbiBuf is the pooled working set of one decode. The decision store
// holds one bit per state per step (states/64 words, at least one): 8 KiB
// for a 256-step K=9 codeword, so traceback stays in L1.
type viterbiBuf struct {
	q        []int32  // quantised LLRs, one per coded bit
	pm, next []int32  // path-metric double buffer, one per state
	dec      []uint64 // decision bits, step-major; set ⇒ odd predecessor won
}

// viterbiWords returns the decision words per trellis step.
func (c *ConvCode) viterbiWords() int { return (c.NumStates() + 63) / 64 }

// getViterbiBuf leases a working set sized for the given step count.
func (c *ConvCode) getViterbiBuf(steps int) *viterbiBuf {
	vb, _ := c.vbPool.Get().(*viterbiBuf)
	if vb == nil {
		states := c.NumStates()
		vb = &viterbiBuf{pm: make([]int32, states), next: make([]int32, states)}
	}
	vb.q = resized(vb.q, steps*len(c.gens))
	vb.dec = resized(vb.dec, steps*c.viterbiWords())
	return vb
}

// resized returns s with length n, reallocating only when it must grow;
// the contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// quantMaxFor returns the quantised peak for a codeword of n LLRs.
func quantMaxFor(n int) int32 {
	if n > maxPathMetric/llrQuantMax {
		return int32(maxPathMetric / n)
	}
	return llrQuantMax
}

// quantizeLLR scales llr so its largest finite magnitude maps to qmax and
// rounds to nearest into q (same length). NaN maps to 0 and ±Inf to ±qmax,
// so the float→int conversion is defined for every input.
func quantizeLLR(q []int32, llr []float64, qmax int32) {
	var peak float64
	for _, x := range llr {
		if a := math.Abs(x); a > peak && a <= math.MaxFloat64 {
			peak = a
		}
	}
	if peak == 0 {
		peak = 1 // only zeros, NaNs and infinities: the ratio below is 0, NaN or ±Inf
	}
	fmax := float64(qmax)
	for i, x := range llr {
		// x/peak is within [-1, 1] for finite x whatever the magnitudes
		// (a reciprocal scale would overflow for a subnormal peak).
		v := x / peak * fmax
		switch {
		case v != v:
			q[i] = 0
		case v >= fmax:
			q[i] = qmax
		case v <= -fmax:
			q[i] = -qmax
		case v >= 0:
			q[i] = int32(v + 0.5)
		default:
			q[i] = int32(v - 0.5)
		}
	}
}

// acs runs the add-compare-select of len(lo) consecutive butterflies: src
// holds the predecessors' metrics pairwise (2j, 2j+1), typ each butterfly's
// row of bm4 (its four branch metrics: even→low, odd→low, even→high,
// odd→high), and the survivors' metrics go to lo (successors j) and hi
// (j+half). Bit i of dlo/dhi is set iff butterfly i's odd predecessor won
// strictly. max compiles to a conditional move and the decision bit is the
// sign of the difference, so the loop has no data-dependent branch.
func acs(lo, hi, src []int32, typ []uint8, bm4 *[1 << maxConvOutputs][4]int32) (dlo, dhi uint64) {
	n := len(lo)
	hi, typ, src = hi[:n], typ[:n], src[:2*n]
	// Descending, so that shifting the earlier bits up leaves bit i at i.
	for i := n - 1; i >= 0; i-- {
		p0, p1 := src[2*i], src[2*i+1]
		m := &bm4[typ[i]&(1<<maxConvOutputs-1)]
		e0, o0 := p0+m[0], p1+m[1]
		e1, o1 := p0+m[2], p1+m[3]
		lo[i] = max(e0, o0)
		dlo = dlo<<1 | uint64(uint32(e0-o0)>>31)
		hi[i] = max(e1, o1)
		dhi = dhi<<1 | uint64(uint32(e1-o1)>>31)
	}
	return dlo, dhi
}

// viterbi runs maximum-likelihood sequence decoding of the quantised
// LLRs vb.q (positive ⇒ bit 0, peak qmax) over the trellis of c, assuming
// the encoder started and ended in the all-zero state, and writes the
// first len(out) decoded input bits to out.
func viterbi(c *ConvCode, vb *viterbiBuf, qmax int32, out []byte) {
	n := len(c.gens)
	steps := len(vb.q) / n
	states := c.NumStates()
	half := states >> 1
	words := c.viterbiWords()

	pm, next := vb.pm[:states], vb.next[:states]
	unreached := -(2*int32(len(vb.q))*qmax + 1)
	for i := range pm {
		pm[i] = unreached
	}
	pm[0] = 0

	// The encoder is linear over GF(2), so a butterfly's four output
	// patterns follow from that of its branch (2j, input 0): the odd
	// predecessor flips the register's LSB, input 1 its MSB.
	lsb, msb := c.tr.pat[1<<1], c.tr.pat[1]
	var bm [1 << maxConvOutputs]int32
	var bm4 [1 << maxConvOutputs][4]int32
	for t := 0; t < steps; t++ {
		// Score every possible output pattern once: pattern bit j clear
		// means coded bit 0 (metric +q[j]), set means 1 (-q[j]).
		bm[0] = 0
		for j, v := range vb.q[t*n : (t+1)*n] {
			bit := 1 << uint(j)
			for p := 0; p < bit; p++ {
				bm[p|bit] = bm[p] - v
				bm[p] += v
			}
		}
		for p := uint8(0); p < 1<<uint(n); p++ {
			bm4[p] = [4]int32{bm[p], bm[p^lsb], bm[p^msb], bm[p^lsb^msb]}
		}

		// Up to 64 butterflies fill one decision word for the low
		// successors and one for the high successors.
		dec := vb.dec[t*words : (t+1)*words]
		for j0 := 0; j0 < half; j0 += 64 {
			j1 := min(j0+64, half)
			dlo, dhi := acs(next[j0:j1], next[half+j0:half+j1], pm[2*j0:2*j1], c.tr.bfly[j0:j1], &bm4)
			if half >= 64 {
				dec[j0>>6], dec[(half+j0)>>6] = dlo, dhi
			} else {
				dec[0] = dlo | dhi<<uint(half)
			}
		}
		pm, next = next, pm
	}

	// Trace back from the zero state by shifts: a state's MSB is the input
	// bit that entered it, and its predecessor is the remaining bits
	// shifted up with the decision bit as the new LSB.
	state := 0
	for t := steps - 1; t >= 0; t-- {
		if t < len(out) {
			out[t] = byte(state >> uint(c.k-2))
		}
		d := int(vb.dec[t*words+state>>6] >> uint(state&63) & 1)
		state = (state&(half-1))<<1 | d
	}
}

// hardPath reports whether exactly one zero-terminated path outputs the
// hard decisions on q, none of them an erasure (q = 0), and writes its
// input bits to out. That codeword has the largest correlation Σ|q| over
// all sign vectors, strictly, so the Viterbi search returns it too.
func hardPath(c *ConvCode, q []int32, out []byte) bool {
	n := len(c.gens)
	state := 0
	for t := 0; t < len(q)/n; t++ {
		var h uint8
		for j, v := range q[t*n : (t+1)*n] {
			if v == 0 {
				return false
			}
			if v < 0 {
				h |= 1 << uint(j)
			}
		}
		idx := state << 1
		switch p0, p1 := c.tr.pat[idx], c.tr.pat[idx|1]; {
		case p0 == p1 || h != p0 && h != p1:
			return false
		case h == p1:
			idx |= 1
		}
		if t < len(out) {
			out[t] = byte(idx & 1)
		} else if idx&1 != 0 {
			return false
		}
		state = int(c.tr.to[idx])
	}
	return true
}
