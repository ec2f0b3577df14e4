package fec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Convolutional coding per the UMTS multiplexing/coding spec the paper
// cites ([4], 3G TS 25.212): constraint length K=9, rate 1/2 with generator
// polynomials (561, 753) octal and rate 1/3 with (557, 663, 711) octal.
// Encoding is zero-terminated: K-1 tail bits flush the encoder so the
// Viterbi decoder can start and end in state 0.

// maxConvOutputs bounds the outputs-per-input-bit (1/rate) so the
// Viterbi pattern-metric table can live on the stack.
const maxConvOutputs = 4

// ConvCode describes a feed-forward convolutional code.
type ConvCode struct {
	name  string
	k     int      // constraint length
	gens  []uint32 // generator polynomials, MSB = current input bit
	dfree int      // free distance: least weight of a nonzero codeword

	tr     convTrellis // precomputed successor/output tables
	vbPool sync.Pool   // *viterbiBuf, shared by concurrent decoders
}

// convTrellis holds the flat per-(state, input) successor and packed
// output-pattern tables, indexed by state<<1|input. Patterns pack the n
// coded bits little-endian (output j in bit j) and index the per-step
// pattern-metric table in viterbi. bfly[j] = pat[(2j)<<1] is the pattern
// of butterfly j's branch from its even predecessor on input 0, the one
// table the decoder's inner loop reads.
type convTrellis struct {
	to   []int32
	pat  []uint8
	bfly []uint8
}

// NewConvCode builds a code from a constraint length and generator
// polynomials given in octal-as-integer form (e.g. 0o561).
func NewConvCode(name string, constraintLen int, gens ...uint32) *ConvCode {
	if constraintLen < 2 || constraintLen > 16 {
		panic("fec: constraint length out of range")
	}
	if len(gens) < 2 {
		panic("fec: need at least two generator polynomials")
	}
	for _, g := range gens {
		if g == 0 || g >= 1<<uint(constraintLen) {
			panic(fmt.Sprintf("fec: generator %o zero or too wide for K=%d", g, constraintLen))
		}
	}
	if len(gens) > maxConvOutputs {
		panic("fec: too many generator polynomials")
	}
	c := &ConvCode{name: name, k: constraintLen, gens: slices.Clone(gens)}
	// Precompute the trellis: successor state and packed output pattern
	// for every (state, input) pair, so neither the encoder nor the
	// decoder computes generator parities per bit.
	states := c.NumStates()
	c.tr.to = make([]int32, states*2)
	c.tr.pat = make([]uint8, states*2)
	for s := 0; s < states; s++ {
		for b := 0; b < 2; b++ {
			reg := uint32(b)<<uint(c.k-1) | uint32(s)
			var pat uint8
			for i, g := range c.gens {
				pat |= uint8(bits.OnesCount32(reg&g)&1) << uint(i)
			}
			c.tr.to[s<<1|b] = int32(reg >> 1)
			c.tr.pat[s<<1|b] = pat
		}
	}
	c.tr.bfly = make([]uint8, states/2)
	for j := range c.tr.bfly {
		c.tr.bfly[j] = c.tr.pat[4*j]
	}
	c.dfree = c.freeDistance()
	return c
}

// freeDistance returns the least output weight of a path that leaves
// state 0 and first returns to it: the least weight of a nonzero
// codeword. dist relaxes to the least weight of such a path to every
// other state; edge weights are not negative, so it settles.
func (c *ConvCode) freeDistance() int {
	dist := make([]int, c.NumStates())
	for i := range dist {
		dist[i] = math.MaxInt / 2
	}
	dist[c.tr.to[1]] = bits.OnesCount8(c.tr.pat[1]) // state 0, input 1
	best := math.MaxInt / 2
	for settled := false; !settled; {
		settled = true
		for idx := 2; idx < len(c.tr.to); idx++ { // the edges out of states 1…
			w, to := dist[idx>>1]+bits.OnesCount8(c.tr.pat[idx]), c.tr.to[idx]
			if to == 0 {
				best = min(best, w)
			} else if w < dist[to] {
				dist[to], settled = w, false
			}
		}
	}
	return best
}

// The UMTS codes are shared singletons: a codec is immutable after
// construction and its decode scratch pool concurrency-safe, so every
// caller resolving a codec by design name (per decoded burst on the
// payload hot path) gets the same tables, interleavers and warm pool.
var (
	umtsConvHalf      = NewConvCode("conv-r1/2-k9", 9, 0o561, 0o753)
	umtsConvThird     = NewConvCode("conv-r1/3-k9", 9, 0o557, 0o663, 0o711)
	umtsTurbo         = NewTurbo(6)
	umtsConvTwoThirds = NewPunctured("conv-r2/3-k9p", umtsConvHalf, Rate23FromHalf)
)

// UMTSConvHalf returns the UMTS K=9 rate-1/2 code.
func UMTSConvHalf() *ConvCode { return umtsConvHalf }

// UMTSConvThird returns the UMTS K=9 rate-1/3 code.
func UMTSConvThird() *ConvCode { return umtsConvThird }

// UMTSTurbo returns the UMTS turbo code decoded with 6 iterations.
func UMTSTurbo() *TurboCode { return umtsTurbo }

// Name implements Codec.
func (c *ConvCode) Name() string { return c.name }

// Rate implements Codec (nominal, ignoring the tail).
func (c *ConvCode) Rate() float64 { return 1 / float64(len(c.gens)) }

// NumStates returns the trellis state count 2^(K-1).
func (c *ConvCode) NumStates() int { return 1 << uint(c.k-1) }

// EncodedLen implements Codec: (k + K-1 tail bits) * n outputs.
func (c *ConvCode) EncodedLen(k int) int { return (k + c.k - 1) * len(c.gens) }

// Encode implements Codec: zero-terminated convolutional encoding.
func (c *ConvCode) Encode(info []byte) []byte {
	return c.AppendEncode(make([]byte, 0, c.EncodedLen(len(info))), info)
}

// AppendEncode implements Codec off the precomputed trellis tables: one
// table lookup per input bit, no per-bit parity work.
func (c *ConvCode) AppendEncode(dst []byte, info []byte) []byte {
	n := len(c.gens)
	state := 0
	push := func(b int) {
		idx := state<<1 | b
		pat := c.tr.pat[idx]
		state = int(c.tr.to[idx])
		for j := 0; j < n; j++ {
			dst = append(dst, pat>>uint(j)&1)
		}
	}
	for _, b := range info {
		if b > 1 {
			panic("fec: Encode input bits must be 0 or 1")
		}
		push(int(b))
	}
	for i := 0; i < c.k-1; i++ { // tail
		push(0)
	}
	return dst
}

// CheckDecodeLen implements Codec: a whole number of trellis
// steps, at least the K-1 of the tail.
func (c *ConvCode) CheckDecodeLen(n int) error {
	if n%len(c.gens) != 0 {
		return fmt.Errorf("fec: %s decode length %d not a multiple of the %d outputs per step", c.name, n, len(c.gens))
	}
	if n/len(c.gens) < c.k-1 {
		return fmt.Errorf("fec: %s decode length %d shorter than the %d-step tail", c.name, n, c.k-1)
	}
	return nil
}

// Decode implements Codec using soft-decision Viterbi decoding over LLRs
// (positive ⇒ bit 0). The decoder assumes zero termination. It panics on a
// length CheckDecodeLen rejects. A codeword whose repaired hard decisions
// are certified maximum-likelihood skips the full trellis search (see
// candidate and certified); the output is the same either way.
func (c *ConvCode) Decode(llr []float64) []byte { return c.AppendDecode(nil, llr) }

// AppendDecode implements Codec: Decode appended to dst.
func (c *ConvCode) AppendDecode(dst []byte, llr []float64) []byte {
	if err := c.CheckDecodeLen(len(llr)); err != nil {
		panic(err)
	}
	vb := c.getViterbiBuf(len(llr) / len(c.gens))
	qmax := quantMaxFor(len(llr))
	quantizeLLR(vb.q, llr, qmax)
	base, k := len(dst), len(llr)/len(c.gens)-(c.k-1)
	dst = slices.Grow(dst, k)[:base+k]
	out := dst[base:]
	if w := candidate(c, vb, qmax, vb.path); w == 0 || w > 0 && certified(c, vb, vb.path) {
		copy(out, vb.path)
	} else {
		viterbi(c, vb, vb.q, qmax, 0, 0, out)
	}
	c.vbPool.Put(vb)
	return dst
}
