package fec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// Turbo coding per the UMTS scheme the paper cites for high-QoS traffic
// (§2.3): a parallel concatenation of two 8-state rate-1/2 RSC encoders
// (g0 = 13 octal feedback, g1 = 15 octal feedforward, as in 3G TS 25.212)
// with an internal interleaver, decoded iteratively with max-log-MAP.
//
// Substitution note: the 3GPP prunable rectangular interleaver is replaced
// by a deterministic pseudo-random permutation seeded by the block length;
// it has the same role (spreading) and comparable performance at the block
// sizes used in the experiments.

// rscStep advances the 8-state UMTS constituent encoder: given state s
// (bits r1r2r3) and input u it returns the parity bit and next state.
func rscStep(s int, u byte) (parityBit byte, next int) {
	a := u ^ byte((s>>1)&1) ^ byte(s&1) // feedback 1 + D^2 + D^3
	z := a ^ byte((s>>2)&1) ^ byte(s&1) // feedforward 1 + D + D^3
	next = int(a)<<2 | (s>>2)<<1 | ((s >> 1) & 1)
	return z, next
}

// Interleaver is a fixed permutation of block indices.
type Interleaver struct{ perm, inv []int }

// NewRandomInterleaver builds the deterministic pseudo-random interleaver
// for block length n (seeded by n, so encoder and decoder agree).
func NewRandomInterleaver(n int) *Interleaver {
	rng := rand.New(rand.NewSource(int64(n)*2654435761 + 1))
	perm := rng.Perm(n)
	inv := make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	return &Interleaver{perm: perm, inv: inv}
}

// TurboCode is the UMTS-style PCCC codec.
type TurboCode struct {
	iterations int
	ils        sync.Map  // block length → *Interleaver, built on first use
	bufPool    sync.Pool // *turboBuf, shared by concurrent decoders
}

// interleaver returns the internal interleaver for block length n, one
// immutable instance per length shared by encoder, decoder and callers.
func (t *TurboCode) interleaver(n int) *Interleaver {
	if il, ok := t.ils.Load(n); ok {
		return il.(*Interleaver)
	}
	il, _ := t.ils.LoadOrStore(n, NewRandomInterleaver(n))
	return il.(*Interleaver)
}

// NewTurbo creates a turbo codec running the given number of decoder
// iterations (UMTS receivers typically use 4-8).
func NewTurbo(iterations int) *TurboCode {
	if iterations < 1 {
		panic("fec: NewTurbo needs at least one iteration")
	}
	return &TurboCode{iterations: iterations, bufPool: sync.Pool{New: func() any { return new(turboBuf) }}}
}

// Name implements Codec.
func (t *TurboCode) Name() string { return "turbo-r1/3" }

// Rate implements Codec (nominal, ignoring tails).
func (t *TurboCode) Rate() float64 { return 1.0 / 3.0 }

// EncodedLen implements Codec: 3k data bits plus 12 tail bits.
func (t *TurboCode) EncodedLen(k int) int { return 3*k + 12 }

// Encode implements Codec (see AppendEncode for the layout).
func (t *TurboCode) Encode(info []byte) []byte {
	return t.AppendEncode(make([]byte, 0, t.EncodedLen(len(info))), info)
}

// AppendEncode appends the turbo codeword of info to dst and returns the
// extended slice, allocation-free when dst has room. Output layout:
//
//	[x0 z1_0 z2_0  x1 z1_1 z2_1 ... ]  3N interleaved data bits
//	[xA0 zA0 xA1 zA1 xA2 zA2]          encoder-1 termination (6 bits)
//	[xB0 zB0 xB1 zB1 xB2 zB2]          encoder-2 termination (6 bits)
func (t *TurboCode) AppendEncode(dst, info []byte) []byte {
	n := len(info)
	perm := t.interleaver(n).perm
	base := len(dst)
	dst = slices.Grow(dst, t.EncodedLen(n))[:base+t.EncodedLen(n)]
	out := dst[base:]
	s1, s2 := 0, 0
	for i, u := range info {
		out[3*i] = u
		out[3*i+1], s1 = rscStep(s1, u)
		out[3*i+2], s2 = rscStep(s2, info[perm[i]]) // encoder 2 sees the interleaved block
	}
	tail := out[3*n:]
	for i := 0; i < 3; i++ {
		u1, u2 := byte(s1>>1^s1)&1, byte(s2>>1^s2)&1 // the inputs that zero the feedback
		tail[2*i], tail[6+2*i] = u1, u2
		tail[2*i+1], s1 = rscStep(s1, u1)
		tail[6+2*i+1], s2 = rscStep(s2, u2)
	}
	return dst
}

// CheckDecodeLen implements Codec: 3k data values plus the 12
// of the two terminations.
func (t *TurboCode) CheckDecodeLen(n int) error {
	if n < 12 || (n-12)%3 != 0 {
		return fmt.Errorf("fec: turbo decode length %d is not 3k+12", n)
	}
	return nil
}

// turboBuf is the pooled working set of one decode of n info bits.
type turboBuf struct {
	sys, par1, par2, sysIl []float64 // demultiplexed channel LLRs; sysIl = sys interleaved
	ext1, apr2, ext2, apr  []float64 // extrinsics and the a-priori views of them
	alpha                  []float64 // forward costs, 8 per data step
	code                   []byte    // re-encoded codeword for the consistency exit
}

func (t *TurboCode) getBuf(n int) *turboBuf {
	tb := t.bufPool.Get().(*turboBuf)
	for _, v := range []*[]float64{&tb.sys, &tb.par1, &tb.par2, &tb.sysIl, &tb.ext1, &tb.apr2, &tb.ext2, &tb.apr} {
		*v = resized(*v, n)
	}
	tb.alpha = resized(tb.alpha, 8*n)
	return tb
}

// Decode implements Codec with iterative max-log-MAP decoding. It panics
// on a length CheckDecodeLen rejects. If the signs already form a codeword
// (see isCodeword), each SISO's best path is that codeword and every
// extrinsic agrees with it, so its info bits are returned untouched.
func (t *TurboCode) Decode(llr []float64) []byte { return t.AppendDecode(nil, llr) }

// AppendDecode implements Codec: Decode appended to dst.
func (t *TurboCode) AppendDecode(dst []byte, llr []float64) []byte {
	if err := t.CheckDecodeLen(len(llr)); err != nil {
		panic(err)
	}
	n := (len(llr) - 12) / 3
	tb := t.getBuf(n)
	defer t.bufPool.Put(tb)
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	for i := range out {
		out[i] = 0
		if llr[3*i] < 0 {
			out[i] = 1
		}
	}
	if !t.isCodeword(tb, llr, out) {
		t.iterate(tb, llr, out)
	}
	return dst
}

// iterate runs the iterative decode of llr and writes its decisions to out.
func (t *TurboCode) iterate(tb *turboBuf, llr []float64, out []byte) {
	n := len(out)
	il := t.interleaver(n)
	for i := 0; i < n; i++ {
		tb.sys[i], tb.par1[i], tb.par2[i] = llr[3*i], llr[3*i+1], llr[3*i+2]
	}
	for i, p := range il.perm {
		tb.sysIl[i] = tb.sys[p]
	}
	clear(tb.apr)
	for it := 0; it < t.iterations; it++ {
		maxLogMAP(tb, tb.ext1, tb.sys, tb.par1, tb.apr, llr[3*n:3*n+6])
		for i, p := range il.perm {
			tb.apr2[i] = tb.ext1[p]
		}
		maxLogMAP(tb, tb.ext2, tb.sysIl, tb.par2, tb.apr2, llr[3*n+6:])
		for i, p := range il.inv {
			tb.apr[i] = tb.ext2[p]
		}
	}
	for i := range out {
		out[i] = 0
		if tb.sys[i]+tb.ext1[i]+tb.apr[i] < 0 {
			out[i] = 1
		}
	}
}

// isCodeword reports whether the signs of llr form the codeword of info
// (the systematic decisions) with every |llr| one L that keeps the decode
// exact. Proof that the decode then returns info: let L = m·2^e, m odd,
// and h = 1…2I count half-iterations (I = t.iterations). If every a-priori
// la agrees with the codeword or is 0, its edge scores the most, |a|+|b|,
// at each step; a path flipping u_t loses ≥ 2|a_t| = |sys_t+la_t| and one
// rejoins it within 4 steps (3 free inputs reach any state), so the exact
// extrinsic agrees and |ext| ≤ 8L + 4·max|la|, < 3·4^h·L after half h. The
// values of half h are q·2^-h·L, |q·m| < (n+4)·8^h·m ≤ 2^53: exact in any
// order, so this kernel and refTurbo both decide info (sys ≠ 0).
func (t *TurboCode) isCodeword(tb *turboBuf, llr []float64, info []byte) bool {
	tb.code = t.AppendEncode(tb.code[:0], info)
	L := math.Abs(llr[0])
	for i, l := range llr {
		if (l < 0) != (tb.code[i] == 1) || math.Abs(l) != L {
			return false
		}
	}
	if !(L >= 0x1p-500 && L <= 0x1p500) { // no 0, ±Inf, NaN, under- or overflow
		return false
	}
	frac, _ := math.Frexp(L)
	m := uint64(frac * (1 << 53))
	return bits.Len64(m>>bits.TrailingZeros64(m))+bits.Len(uint(len(info)+4))+6*t.iterations <= 53
}

// best is the smaller of two path costs, where a NaN (of a NaN input, or
// +Inf + −Inf) never wins: +Inf if both are NaN. m >= m is false only for
// a NaN, and compiles to one branch where m == m takes two.
func best(x, y float64) float64 {
	if m := min(x, y); m >= m {
		return m
	}
	if x == x {
		return x
	}
	if y == y {
		return y
	}
	return math.Inf(1)
}

// maxLogMAP runs one constituent SISO over n = len(sys) steps and the 3 of
// tail ([sys par] ×3) and writes each data bit's extrinsic LLR to ext, the
// bits of refMaxLogMAP's on every input.
//
// A branch of input u, parity z scores ±a ± b (minus for a set bit), a =
// ½(sys+la), b = ½par, as in the reference. The recursions keep costs, the
// scores negated, so that the best path is the builtin min, which has no
// branch: branch cost h[u<<1|z] = (∓a) + (∓b) is its score negated but
// for the sign of a zero (negation is exact). A path starts from +0 and a
// sum is −0 only of two −0s, so no path cost or score is −0, and each
// path cost is its score negated but for the sign of a zero. So m1 − m0
// of the costs has the bits of m0 − m1 of the scores, and equal candidates
// have equal bits: neither the order nor the grouping of candidates shows.
//
// The 8-state trellis is four butterflies: states 2j and 2j+1 reach j and
// j+4 on the branch costs (p, q) and (q, p), with (p, q) = (h0,h3),
// (h2,h1), (h1,h2), (h3,h0) for j = 0…3, so every cost lives in a local.
// Unreachable states (+Inf) need no test.
func maxLogMAP(tb *turboBuf, ext, sys, par, la, tail []float64) {
	n := len(sys)
	par, la, ext = par[:n], la[:n], ext[:n]
	alpha := tb.alpha[:8*n]
	costs := func(t int) (h0, h1, h2, h3 float64) { // step t's h[u<<1|z]
		var x, p float64
		if t < n {
			x, p = sys[t]+la[t], par[t]
		} else {
			x, p = tail[2*(t-n)], tail[2*(t-n)+1]
		}
		a, b := float64(0.5*x), float64(0.5*p) // rounded: arm64 fuses no a + b
		return (-a) + (-b), (-a) + b, a + (-b), a + b
	}
	inf := math.Inf(1)

	// Forward recursion from state 0; only the n data steps' rows are kept.
	a0, a1, a2, a3, a4, a5, a6, a7 := 0.0, inf, inf, inf, inf, inf, inf, inf
	for t := 0; t < n; t++ {
		r := (*[8]float64)(alpha[8*t:])
		r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = a0, a1, a2, a3, a4, a5, a6, a7
		h0, h1, h2, h3 := costs(t)
		a0, a1, a2, a3, a4, a5, a6, a7 =
			best(a0+h0, a1+h3), best(a2+h2, a3+h1), best(a4+h1, a5+h2), best(a6+h3, a7+h0),
			best(a0+h3, a1+h0), best(a2+h1, a3+h2), best(a4+h2, a5+h1), best(a6+h0, a7+h3)
	}

	// Backward recursion from the terminated state 0 over the tail and the
	// data steps, each data step's extrinsic taken before its beta update.
	b0, b1, b2, b3, b4, b5, b6, b7 := 0.0, inf, inf, inf, inf, inf, inf, inf
	for t := n + 2; t >= 0; t-- {
		h0, h1, h2, h3 := costs(t)
		if t < n {
			r := (*[8]float64)(alpha[8*t:])
			m0 := best(best(best(r[0]+h0+b0, r[1]+h0+b4), best(r[2]+h1+b5, r[3]+h1+b1)),
				best(best(r[4]+h1+b2, r[5]+h1+b6), best(r[6]+h0+b7, r[7]+h0+b3)))
			m1 := best(best(best(r[0]+h3+b4, r[1]+h3+b0), best(r[2]+h2+b1, r[3]+h2+b5)),
				best(best(r[4]+h2+b6, r[5]+h2+b2), best(r[6]+h3+b3, r[7]+h3+b7)))
			x := m1 - m0 - sys[t] - la[t]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			ext[t] = x
		}
		b0, b1, b2, b3, b4, b5, b6, b7 =
			best(h0+b0, h3+b4), best(h0+b4, h3+b0), best(h1+b5, h2+b1), best(h1+b1, h2+b5),
			best(h1+b2, h2+b6), best(h1+b6, h2+b2), best(h0+b7, h3+b3), best(h0+b3, h3+b7)
	}
}
