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

// CheckDecodeLen implements DecodeLenChecker: 3k data values plus the 12
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
	alpha                  []float64 // forward metrics, 8 per step boundary (n+4 of them)
	gam                    []float64 // the four branch metrics of each of the n+3 steps
	code                   []byte    // re-encoded codeword for the consistency exit
}

func (t *TurboCode) getBuf(n int) *turboBuf {
	tb := t.bufPool.Get().(*turboBuf)
	for _, v := range []*[]float64{&tb.sys, &tb.par1, &tb.par2, &tb.sysIl, &tb.ext1, &tb.apr2, &tb.ext2, &tb.apr} {
		*v = resized(*v, n)
	}
	tb.alpha = resized(tb.alpha, 8*(n+4))
	tb.gam = resized(tb.gam, 4*(n+3))
	return tb
}

// Decode implements Codec with iterative max-log-MAP decoding. It panics
// on a length CheckDecodeLen rejects. If the signs already form a codeword
// (see isCodeword), each SISO's best path is that codeword and every
// extrinsic agrees with it, so its info bits are returned untouched.
func (t *TurboCode) Decode(llr []float64) []byte {
	if err := t.CheckDecodeLen(len(llr)); err != nil {
		panic(err)
	}
	n := (len(llr) - 12) / 3
	tb := t.getBuf(n)
	defer t.bufPool.Put(tb)
	out := make([]byte, n)
	for i := range out {
		if llr[3*i] < 0 {
			out[i] = 1
		}
	}
	if !t.isCodeword(tb, llr, out) {
		t.iterate(tb, llr, out)
	}
	return out
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

// turboEdge[s][u] is the trellis edge leaving state s on input u: its
// successor and the index u<<1|parity of its branch metric in a step's
// four (see maxLogMAP).
var turboEdge = func() (e [8][2]struct{ next, gi uint8 }) {
	for s := range e {
		for u := range e[s] {
			z, ns := rscStep(s, byte(u))
			e[s][u].next, e[s][u].gi = uint8(ns), uint8(u<<1)|z
		}
	}
	return e
}()

// maxLogMAP runs one constituent SISO over n = len(sys) steps and the 3 of
// tail ([sys par] ×3) and writes each data bit's extrinsic LLR to ext. A
// branch of input u, parity z scores ±a ± b (minus for a set bit), a =
// ½(sys+la), b = ½par: the same floats as ½·(±1)·(sys+la) + ½·(±1)·par,
// as negation is exact. States go in ascending order with a strict '>';
// unreachable states (−Inf) need no test, as −Inf or NaN never wins.
func maxLogMAP(tb *turboBuf, ext, sys, par, la, tail []float64) {
	n := len(sys)
	steps := n + 3
	neg := math.Inf(-1)
	for t := 0; t < steps; t++ {
		var a, b float64
		if t < n {
			a, b = 0.5*(sys[t]+la[t]), 0.5*par[t]
		} else {
			a, b = 0.5*(tail[2*(t-n)]+0), 0.5*tail[2*(t-n)+1] // +0: la = 0 maps −0 to +0
		}
		g := (*[4]float64)(tb.gam[4*t:])
		g[0], g[1], g[2], g[3] = a+b, a+(-b), (-a)+b, (-a)+(-b)
	}

	alpha := tb.alpha
	*(*[8]float64)(alpha) = [8]float64{0, neg, neg, neg, neg, neg, neg, neg}
	for t := 0; t < steps; t++ {
		cur, nxt := (*[8]float64)(alpha[8*t:]), (*[8]float64)(alpha[8*t+8:])
		g := (*[4]float64)(tb.gam[4*t:])
		*nxt = [8]float64{neg, neg, neg, neg, neg, neg, neg, neg}
		for s := range cur {
			for _, e := range turboEdge[s] {
				if m := cur[s] + g[e.gi&3]; m > nxt[e.next&7] {
					nxt[e.next&7] = m
				}
			}
		}
	}

	// Backward recursion from the terminated state 0, one beta row at a
	// time, with each data step's extrinsic taken on the way.
	beta := [8]float64{0, neg, neg, neg, neg, neg, neg, neg}
	for t := steps - 1; t >= 0; t-- {
		g := (*[4]float64)(tb.gam[4*t:])
		if t < n {
			cur := (*[8]float64)(alpha[8*t:])
			m0, m1 := neg, neg
			for s, e := range turboEdge {
				if m := cur[s] + g[e[0].gi&3] + beta[e[0].next&7]; m > m0 {
					m0 = m
				}
				if m := cur[s] + g[e[1].gi&3] + beta[e[1].next&7]; m > m1 {
					m1 = m
				}
			}
			x := m0 - m1 - sys[t] - la[t]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			ext[t] = x
		}
		var prev [8]float64
		for s, es := range turboEdge {
			best := neg
			for _, e := range es {
				if m := g[e.gi&3] + beta[e.next&7]; m > best {
					best = m
				}
			}
			prev[s] = best
		}
		beta = prev
	}
}
