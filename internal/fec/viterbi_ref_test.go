package fec

import "math"

// refViterbi is the float64 soft-decision Viterbi decoder the fixed-point
// kernel in viterbi.go replaced, kept as the reference the equivalence
// tests compare against: float64 path metrics, an explicit reachability
// test per state, and a full int32 survivor matrix. States are visited in
// ascending order with a strict '>' update, so equal metrics keep the even
// predecessor — the tie rule the kernel must reproduce. It returns the
// decoded input bit per step, tail steps included.
func refViterbi(c *ConvCode, llr []float64) []byte {
	n := len(c.gens)
	steps := len(llr) / n
	states := c.NumStates()
	const neg = math.MaxFloat64 / 4

	pm := make([]float64, states)
	next := make([]float64, states)
	for i := range pm {
		pm[i] = -neg
	}
	pm[0] = 0

	survivor := make([]int32, steps*states) // survivor[t*states+to] = from<<1 | bit
	var bm [1 << maxConvOutputs]float64

	for t := 0; t < steps; t++ {
		for i := range next {
			next[i] = -neg
		}
		sv := survivor[t*states : (t+1)*states]
		for i := range sv {
			sv[i] = -1
		}
		seg := llr[t*n : (t+1)*n]
		for p := 0; p < 1<<uint(n); p++ {
			var m float64
			for j := 0; j < n; j++ {
				if p>>uint(j)&1 == 0 {
					m += seg[j]
				} else {
					m -= seg[j]
				}
			}
			bm[p] = m
		}
		for s := 0; s < states; s++ {
			if pm[s] <= -neg {
				continue
			}
			for b := 0; b < 2; b++ {
				to := int(c.tr.to[s<<1|b])
				m := pm[s] + bm[c.tr.pat[s<<1|b]]
				if m > next[to] {
					next[to] = m
					sv[to] = int32(s)<<1 | int32(b)
				}
			}
		}
		pm, next = next, pm
	}

	out := make([]byte, steps)
	state := 0
	for t := steps - 1; t >= 0; t-- {
		sv := survivor[t*states+state]
		if sv < 0 {
			break
		}
		out[t] = byte(sv & 1)
		state = int(sv >> 1)
	}
	return out
}

// refDecode is ConvCode.Decode over the float64 reference.
func refDecode(c *ConvCode, llr []float64) []byte {
	steps := len(llr) / len(c.gens)
	return refViterbi(c, llr)[:steps-(c.k-1)]
}
