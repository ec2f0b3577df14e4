package fec

import "math"

// refTurbo is the turbo decoder the scratch-pooled kernel in turbo.go
// replaced, kept as the reference the equivalence tests compare against:
// a per-call trellis, closures for the branch metric, freshly allocated
// alpha/beta matrices, explicit -Inf reachability skips and an allocating
// interleaver per half-iteration. The kernel must match it bit for bit on
// every input.
func refTurbo(t *TurboCode, llr []float64) []byte {
	n := (len(llr) - 12) / 3
	il := t.interleaver(n)
	permute := func(in []float64, perm []int) []float64 {
		out := make([]float64, len(in))
		for i, p := range perm {
			out[i] = in[p]
		}
		return out
	}

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

	sysIl := permute(sys, il.perm)
	apriori := make([]float64, n)
	var post []float64

	for it := 0; it < t.iterations; it++ {
		ext1 := refMaxLogMAP(sys, par1, apriori, t1sys, t1par)
		apriori2 := permute(ext1, il.perm)
		ext2 := refMaxLogMAP(sysIl, par2, apriori2, t2sys, t2par)
		apriori = permute(ext2, il.inv)

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

// refMaxLogMAP runs one constituent SISO decode over a block of n steps
// plus 3 termination steps and returns the extrinsic LLR for each data bit.
func refMaxLogMAP(sys, par, la, tailSys, tailPar []float64) []float64 {
	n := len(sys)
	steps := n + 3
	const states = 8
	neg := math.Inf(-1)

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

// refTurboEncode is the allocating encoder AppendEncode replaced: each
// constituent encodes its whole block (the second one the interleaved
// bits) and its own termination, and the streams are multiplexed after.
func refTurboEncode(t *TurboCode, info []byte) []byte {
	n := len(info)
	il := t.interleaver(n)
	rsc := func(in []byte) (par, tailSys, tailPar []byte) {
		par = make([]byte, len(in))
		s := 0
		for i, u := range in {
			par[i], s = rscStep(s, u)
		}
		tailSys, tailPar = make([]byte, 3), make([]byte, 3)
		for i := 0; i < 3; i++ {
			u := rscTerminationInput(s)
			tailSys[i] = u
			tailPar[i], s = rscStep(s, u)
		}
		return par, tailSys, tailPar
	}
	interleaved := make([]byte, n)
	for i, p := range il.perm {
		interleaved[i] = info[p]
	}
	p1, t1sys, t1par := rsc(info)
	p2, t2sys, t2par := rsc(interleaved)
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

// rscTerminationInput returns the input that drives the feedback to zero,
// stepping the register toward the all-zero state.
func rscTerminationInput(s int) byte {
	return byte((s>>1)&1) ^ byte(s&1)
}
