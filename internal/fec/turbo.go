package fec

import (
	"fmt"
	"math"
	"math/rand"
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

// rscTerminationInput returns the input that drives the feedback to zero,
// stepping the register toward the all-zero state.
func rscTerminationInput(s int) byte {
	return byte((s>>1)&1) ^ byte(s&1)
}

// Interleaver is a fixed permutation of block indices.
type Interleaver struct {
	perm []int
	inv  []int
}

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

// Interleave applies the permutation: out[i] = in[perm[i]].
func (il *Interleaver) Interleave(in []float64) []float64 {
	out := make([]float64, len(in))
	for i, p := range il.perm {
		out[i] = in[p]
	}
	return out
}

// Deinterleave applies the inverse permutation.
func (il *Interleaver) Deinterleave(in []float64) []float64 {
	out := make([]float64, len(in))
	for i, p := range il.inv {
		out[i] = in[p]
	}
	return out
}

// InterleaveBits applies the permutation to a bit slice.
func (il *Interleaver) InterleaveBits(in []byte) []byte {
	out := make([]byte, len(in))
	for i, p := range il.perm {
		out[i] = in[p]
	}
	return out
}

// TurboCode is the UMTS-style PCCC codec.
type TurboCode struct {
	iterations int
	ils        sync.Map // block length → *Interleaver, built on first use
}

// interleaver returns the internal interleaver for block length n. An
// Interleaver is immutable and a function of n alone, so encoder, decoder
// and concurrent callers share one instance per length.
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
	return &TurboCode{iterations: iterations}
}

// Name implements Codec.
func (t *TurboCode) Name() string { return "turbo-r1/3" }

// Rate implements Codec (nominal, ignoring tails).
func (t *TurboCode) Rate() float64 { return 1.0 / 3.0 }

// EncodedLen implements Codec: 3k data bits plus 12 tail bits.
func (t *TurboCode) EncodedLen(k int) int { return 3*k + 12 }

// rscEncode runs one constituent over the block and appends its own
// 3-step termination, returning parities for the block, plus the tail
// systematic and tail parity bits.
func rscEncode(in []byte) (par []byte, tailSys, tailPar []byte) {
	par = make([]byte, len(in))
	s := 0
	for i, u := range in {
		par[i], s = rscStep(s, u)
	}
	tailSys = make([]byte, 3)
	tailPar = make([]byte, 3)
	for i := 0; i < 3; i++ {
		u := rscTerminationInput(s)
		tailSys[i] = u
		tailPar[i], s = rscStep(s, u)
	}
	return par, tailSys, tailPar
}

// Encode implements Codec. Output layout:
//
//	[x0 z1_0 z2_0  x1 z1_1 z2_1 ... ]  3N interleaved data bits
//	[xA0 zA0 xA1 zA1 xA2 zA2]          encoder-1 termination (6 bits)
//	[xB0 zB0 xB1 zB1 xB2 zB2]          encoder-2 termination (6 bits)
func (t *TurboCode) Encode(info []byte) []byte {
	n := len(info)
	il := t.interleaver(n)
	interleaved := il.InterleaveBits(info)

	p1, t1sys, t1par := rscEncode(info)
	p2, t2sys, t2par := rscEncode(interleaved)

	out := make([]byte, 0, t.EncodedLen(n))
	for i := 0; i < n; i++ {
		out = append(out, info[i], p1[i], p2[i])
	}
	for i := 0; i < 3; i++ {
		out = append(out, t1sys[i], t1par[i])
	}
	for i := 0; i < 3; i++ {
		out = append(out, t2sys[i], t2par[i])
	}
	return out
}

// CheckDecodeLen implements DecodeLenChecker: 3k data values plus the 12
// of the two terminations.
func (t *TurboCode) CheckDecodeLen(n int) error {
	if n < 12 || (n-12)%3 != 0 {
		return fmt.Errorf("fec: turbo decode length %d is not 3k+12", n)
	}
	return nil
}

// Decode implements Codec with iterative max-log-MAP decoding. It panics
// on a length CheckDecodeLen rejects.
func (t *TurboCode) Decode(llr []float64) []byte {
	if err := t.CheckDecodeLen(len(llr)); err != nil {
		panic(err)
	}
	n := (len(llr) - 12) / 3
	il := t.interleaver(n)

	sys := make([]float64, n)
	par1 := make([]float64, n)
	par2 := make([]float64, n)
	for i := 0; i < n; i++ {
		sys[i] = llr[3*i]
		par1[i] = llr[3*i+1]
		par2[i] = llr[3*i+2]
	}
	tail := llr[3*n:]
	t1sys := []float64{tail[0], tail[2], tail[4]}
	t1par := []float64{tail[1], tail[3], tail[5]}
	t2sys := []float64{tail[6], tail[8], tail[10]}
	t2par := []float64{tail[7], tail[9], tail[11]}

	sysIl := il.Interleave(sys)
	apriori := make([]float64, n)
	var post []float64

	for it := 0; it < t.iterations; it++ {
		ext1 := maxLogMAP(sys, par1, apriori, t1sys, t1par)
		apriori2 := il.Interleave(ext1)
		ext2 := maxLogMAP(sysIl, par2, apriori2, t2sys, t2par)
		apriori = il.Deinterleave(ext2)

		if it == t.iterations-1 {
			post = make([]float64, n)
			for i := 0; i < n; i++ {
				post[i] = sys[i] + ext1[i] + apriori[i]
			}
		}
	}

	out := make([]byte, n)
	for i, l := range post {
		if l < 0 {
			out[i] = 1
		}
	}
	return out
}

// maxLogMAP runs one constituent SISO decode over a block of n steps plus
// 3 termination steps and returns the extrinsic LLR for each data bit.
// Inputs: sys/par are channel LLRs for systematic and parity bits, la is
// the a-priori LLR, tailSys/tailPar the termination channel LLRs.
func maxLogMAP(sys, par, la, tailSys, tailPar []float64) []float64 {
	n := len(sys)
	steps := n + 3
	const states = 8
	neg := math.Inf(-1)

	// Precompute trellis.
	type br struct {
		next   int
		parity byte
	}
	var trellis [states][2]br
	for s := 0; s < states; s++ {
		for u := 0; u < 2; u++ {
			z, ns := rscStep(s, byte(u))
			trellis[s][u] = br{next: ns, parity: z}
		}
	}

	sign := func(b byte) float64 {
		if b == 0 {
			return 1
		}
		return -1
	}

	// Branch metric gamma for step t, state s, input u.
	gamma := func(t, s, u int) float64 {
		var lSys, lPar, lA float64
		if t < n {
			lSys, lPar, lA = sys[t], par[t], la[t]
		} else {
			lSys, lPar, lA = tailSys[t-n], tailPar[t-n], 0
		}
		su := 1.0
		if u == 1 {
			su = -1
		}
		z := trellis[s][u].parity
		return 0.5*su*(lSys+lA) + 0.5*sign(z)*lPar
	}

	// Forward recursion.
	alpha := make([][states]float64, steps+1)
	for s := 0; s < states; s++ {
		alpha[0][s] = neg
	}
	alpha[0][0] = 0
	for t := 0; t < steps; t++ {
		for s := 0; s < states; s++ {
			alpha[t+1][s] = neg
		}
		for s := 0; s < states; s++ {
			if alpha[t][s] == neg {
				continue
			}
			for u := 0; u < 2; u++ {
				ns := trellis[s][u].next
				m := alpha[t][s] + gamma(t, s, u)
				if m > alpha[t+1][ns] {
					alpha[t+1][ns] = m
				}
			}
		}
	}

	// Backward recursion (terminated in state 0).
	beta := make([][states]float64, steps+1)
	for s := 0; s < states; s++ {
		beta[steps][s] = neg
	}
	beta[steps][0] = 0
	for t := steps - 1; t >= 0; t-- {
		for s := 0; s < states; s++ {
			best := neg
			for u := 0; u < 2; u++ {
				ns := trellis[s][u].next
				if beta[t+1][ns] == neg {
					continue
				}
				m := gamma(t, s, u) + beta[t+1][ns]
				if m > best {
					best = m
				}
			}
			beta[t][s] = best
		}
	}

	// Extrinsic output for the n data steps.
	ext := make([]float64, n)
	for t := 0; t < n; t++ {
		m0, m1 := neg, neg
		for s := 0; s < states; s++ {
			if alpha[t][s] == neg {
				continue
			}
			for u := 0; u < 2; u++ {
				ns := trellis[s][u].next
				if beta[t+1][ns] == neg {
					continue
				}
				m := alpha[t][s] + gamma(t, s, u) + beta[t+1][ns]
				if u == 0 {
					if m > m0 {
						m0 = m
					}
				} else if m > m1 {
					m1 = m
				}
			}
		}
		lPost := m0 - m1
		ext[t] = lPost - sys[t] - la[t]
		if math.IsNaN(ext[t]) || math.IsInf(ext[t], 0) {
			ext[t] = 0
		}
	}
	return ext
}
