package fec

import (
	"math"
	"math/bits"
)

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
	path     []byte   // candidate's input bits, one per step
	low      []int32  // certified's dfree smallest |q| outside D
}

// viterbiWords returns the decision words per trellis step.
func (c *ConvCode) viterbiWords() int { return (c.NumStates() + 63) / 64 }

// getViterbiBuf leases a working set sized for the given step count.
func (c *ConvCode) getViterbiBuf(steps int) *viterbiBuf {
	vb, _ := c.vbPool.Get().(*viterbiBuf)
	if vb == nil {
		states := c.NumStates()
		vb = &viterbiBuf{pm: make([]int32, states), next: make([]int32, states), low: make([]int32, c.dfree)}
	}
	vb.q = resized(vb.q, steps*len(c.gens))
	vb.dec = resized(vb.dec, steps*c.viterbiWords())
	vb.path = resized(vb.path, steps)
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
// LLRs q (positive ⇒ bit 0, peak qmax) over the trellis of c from state
// start, to state end or, for end < 0, to whichever state holds the best
// metric (the lowest such state). It writes the input bit of step t to
// out[t] for t < len(out) and returns the final state. With start and end
// 0 it decodes a zero-terminated codeword; a window of a longer one starts
// from any state and may leave the end free.
func viterbi(c *ConvCode, vb *viterbiBuf, q []int32, qmax int32, start, end int, out []byte) int {
	n := len(c.gens)
	steps := len(q) / n
	states := c.NumStates()
	half := states >> 1
	words := c.viterbiWords()

	pm, next := vb.pm[:states], vb.next[:states]
	unreached := -(2*int32(len(q))*qmax + 1)
	for i := range pm {
		pm[i] = unreached
	}
	pm[start] = 0

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
		for j, v := range q[t*n : (t+1)*n] {
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

	if end < 0 {
		end = 0
		for s, m := range pm {
			if m > pm[end] {
				end = s
			}
		}
	}
	// Trace back by shifts: a state's MSB is the input bit that entered
	// it, and its predecessor is the remaining bits shifted up with the
	// decision bit as the new LSB.
	state := end
	for t := steps - 1; t >= 0; t-- {
		if t < len(out) {
			out[t] = byte(state >> uint(c.k-2))
		}
		d := int(vb.dec[t*words+state>>6] >> uint(state&63) & 1)
		state = (state&(half-1))<<1 | d
	}
	return end
}

// Certified decoding: candidate repairs the hard decisions into a codeword
// with the Viterbi search confined to windows around the errors, and
// certified proves it the unique maximum-likelihood codeword, exactly
// what the full search returns. Only a word that fails runs the full one.

// A window spans windowBack steps before the step it repairs and
// windowAhead after it. Over AWGN words at 6–12 dB, six such windows
// certify at least as many words as four of 9 + 18 steps (the same 108
// steps) for two thirds of their ACS work.
const windowBack, windowAhead, maxWindows = 6, 12, 6

// candidate walks the hard decisions of vb.q from state 0 and writes the
// input bits of a zero-terminated path to path. At each step it follows
// the one edge that agrees with them (an erasure, q = 0, agrees with
// either bit; the tail takes input 0). Where no edge or both agree, it
// runs viterbi over a window from the path's state windowBack steps back,
// with a free end, or state 0 if it reaches the tail, and resumes at the
// window's end. It returns the number of windows, or -1 when it gives up:
// after maxWindows, or before the first if hopeless. With no window the path
// agrees with every hard decision, and any other codeword leaves it by an
// edge that does not: it is the unique maximum-likelihood codeword.
func candidate(c *ConvCode, vb *viterbiBuf, qmax int32, path []byte) int {
	n := len(c.gens)
	steps := len(vb.q) / n
	tail := steps - (c.k - 1)
	state, windows := 0, 0
	for t := 0; t < steps; {
		var h, m uint8 // hard pattern, and its bits that are not erased
		for j, v := range vb.q[t*n : (t+1)*n] {
			h |= uint8(uint32(v)>>31) << uint(j)
			if v != 0 {
				m |= 1 << uint(j)
			}
		}
		idx := state << 1
		if ok0, ok1 := (c.tr.pat[idx]^h)&m == 0, t < tail && (c.tr.pat[idx|1]^h)&m == 0; ok0 != ok1 {
			if ok1 {
				idx |= 1
			}
			path[t], state = byte(idx&1), int(c.tr.to[idx])
			t++
			continue
		}
		if windows == maxWindows || windows == 0 && c.hopeless(vb.q) {
			return -1
		}
		windows++
		t0, t1, end, from := max(t-windowBack, 0), t+windowAhead, -1, 0
		if t1 > tail {
			t1, end = steps, 0
		}
		for _, b := range path[max(t0-(c.k-1), 0):t0] {
			from = from>>1 | int(b)<<uint(c.k-2)
		}
		state, t = viterbi(c, vb, vb.q[t0*n:t1*n], qmax, from, end, path[t0:t1]), t1
	}
	return windows
}

// hopeless reports whether no windows can certify the hard decisions on
// q. Either they hold more errors than maxWindows windows repair, by the
// weight of their syndromes r0·gj + rj·g0 (j ≥ 1, rj the decisions on
// output j), zero on a codeword and taps/n per hard error on average; or
// q holds dfree erasures or more (a punctured word does), which make the
// dfree − |D| smallest |q| outside D sum to 0 in certified.
func (c *ConvCode) hopeless(q []int32) bool {
	n := len(c.gens)
	var r [maxConvOutputs]uint32
	w, taps, j, erased := 0, 0, 0, 0
	for _, g := range c.gens[1:] {
		taps += bits.OnesCount32(c.gens[0]) + bits.OnesCount32(g)
	}
	for _, v := range q {
		if v == 0 {
			erased++
		}
		r[j] = r[j]>>1 | uint32(v)>>31<<uint(c.k-1)
		if j > 0 {
			w += bits.OnesCount32(r[0]&c.gens[j]^r[j]&c.gens[0]) & 1
		}
		if j++; j == n {
			j = 0
		}
	}
	return w*n > maxWindows*taps || erased >= c.dfree
}

// certified reports whether the codeword of path is the unique
// maximum-likelihood codeword for vb.q. Let D be the positions where it
// disagrees with a hard decision (an erasure disagrees with none). Any
// other codeword differs from it in at least dfree positions: it gains
// at most Σ_D |q| and loses at least the sum of the dfree − |D| smallest
// |q| outside D, so a strictly smaller Σ_D |q| proves the candidate the
// unique best, which the exact int32 metrics of viterbi then return too.
func certified(c *ConvCode, vb *viterbiBuf, path []byte) bool {
	n, low := len(c.gens), vb.low // the dfree smallest |q| outside D so far, ascending
	for i := range low {
		low[i] = math.MaxInt32
	}
	var sumD, sum int64
	nd, state := 0, 0
	for t, b := range path {
		idx := state<<1 | int(b)
		state = int(c.tr.to[idx])
		for j, v := range vb.q[t*n : (t+1)*n] {
			if a := max(v, -v); v != 0 && (v < 0) != (c.tr.pat[idx]>>uint(j)&1 == 1) {
				if nd++; nd >= c.dfree {
					return false
				}
				sumD += int64(a)
			} else if a < low[len(low)-1] {
				i := len(low) - 1
				for ; i > 0 && low[i-1] > a; i-- {
					low[i] = low[i-1]
				}
				low[i] = a
			}
		}
	}
	for _, a := range low[:c.dfree-nd] {
		sum += int64(a)
	}
	return sumD < sum
}
