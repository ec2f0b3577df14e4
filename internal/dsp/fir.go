package dsp

import "slices"

// dotReal returns Σ w[j]·t[j] over len(t) samples, the inner product
// every filter here reduces to. Complex samples times real taps are two
// real multiplies each, not a complex one. The conversions round each
// product before it is added, so no target fuses the two into an FMA.
func dotReal(w Vec, t []float64) complex128 {
	w = w[:len(t)]
	var r, i float64
	for j, c := range t {
		r += float64(real(w[j]) * c)
		i += float64(imag(w[j]) * c)
	}
	return complex(r, i)
}

// dot4 is dotReal over the four windows of w that start at 0, s, 2s and
// 3s: the outputs share every tap load and run as eight independent
// accumulator chains. Each output sums in dotReal's order, so which
// kernel produced a sample does not show in its value.
func dot4(w Vec, s int, t []float64) (y0, y1, y2, y3 complex128) {
	n := len(t)
	w0, w1, w2, w3 := w[:n], w[s:][:n], w[2*s:][:n], w[3*s:][:n]
	var r0, i0, r1, i1, r2, i2, r3, i3 float64
	for j, c := range t {
		a, b := w0[j], w1[j]
		r0 += float64(real(a) * c)
		i0 += float64(imag(a) * c)
		r1 += float64(real(b) * c)
		i1 += float64(imag(b) * c)
		a, b = w2[j], w3[j]
		r2 += float64(real(a) * c)
		i2 += float64(imag(a) * c)
		r3 += float64(real(b) * c)
		i3 += float64(imag(b) * c)
	}
	return complex(r0, i0), complex(r1, i1), complex(r2, i2), complex(r3, i3)
}

// filterInto writes dst[k*ds] = dotReal(x[k*xs:], t) for k < n: eight
// outputs at a time through dot8, then four through dot4, then one at a
// time. It is a filter whose input advances xs samples and whose output
// advances ds per step (a plain FIR is 1 and 1, a decimator by D is D
// and 1, one branch of an interpolator by L is 1 and L).
func filterInto(dst Vec, ds int, x Vec, xs int, t []float64, n int) {
	var y [8]complex128
	k := 0
	for ; k+8 <= n; k += 8 {
		dot8(x[k*xs:][:7*xs+len(t)], xs, t, &y)
		o := dst[k*ds:][:7*ds+1]
		for i := range y { // indexed: a range value would copy y
			o[i*ds] = y[i]
		}
	}
	if k+4 <= n {
		o := dst[k*ds:]
		o[0], o[ds], o[2*ds], o[3*ds] = dot4(x[k*xs:], xs, t)
		k += 4
	}
	for ; k < n; k++ {
		dst[k*ds] = dotReal(x[k*xs:], t)
	}
}

// interpolator is a streaming polyphase interpolator by l over a real
// prototype filter: output l·m+p is branch p of the prototype (taps p,
// p+l, p+2l, …) applied to the inputs up to m — the nonzero products of
// zero-stuffing by l and filtering at the high rate, same output and
// group delay, at len(taps)/l multiplies per output and no scratch.
type interpolator struct {
	l, j int       // interpolation factor; taps per branch
	br   []float64 // branch p reversed at br[p*j:(p+1)*j], zero-padded to j
	ext  Vec       // j-1 samples of history, then room for a block's first j-1
}

// newInterpolator splits taps (scaled by gain) into l branches.
func newInterpolator(taps []float64, l int, gain float64) *interpolator {
	j := (len(taps) + l - 1) / l
	ip := &interpolator{l: l, j: j, br: make([]float64, l*j), ext: NewVec(2 * (j - 1))}
	for k, t := range taps {
		ip.br[(k%l)*j+j-1-k/l] = gain * t
	}
	return ip
}

// processInto writes the l·len(in) interpolated samples into dst (at
// least that long, not aliasing in) and returns the filled prefix.
func (ip *interpolator) processInto(dst, in Vec) Vec {
	dst = ip.outputs(dst, in)
	ip.push(in)
	return dst
}

// outputs is processInto without moving the history: only the first j-1
// inputs' windows reach into it.
func (ip *interpolator) outputs(dst, in Vec) Vec {
	h := ip.j - 1
	dst = dst[:len(in)*ip.l]
	head := min(len(in), h)
	ext := ip.ext[:h+head]
	copy(ext[h:], in[:head])
	ip.run(dst, ext)
	ip.run(dst[head*ip.l:], in)
	return dst
}

// push moves the history past in.
func (ip *interpolator) push(in Vec) {
	h, k := ip.j-1, min(len(in), ip.j-1)
	copy(ip.ext[h:], in[len(in)-k:])
	copy(ip.ext, ip.ext[k:h+k])
}

// run writes the l outputs of every full window x[m:m+j] into dst.
func (ip *interpolator) run(dst, x Vec) {
	for p := 0; p < ip.l && len(x) >= ip.j; p++ {
		filterInto(dst[p:], ip.l, x, 1, ip.br[p*ip.j:(p+1)*ip.j], len(x)-ip.j+1)
	}
}

func (ip *interpolator) reset() { clear(ip.ext) }

func allZero(v Vec) bool {
	for _, s := range v {
		if s != 0 {
			return false
		}
	}
	return true
}

func reversed(t []float64) []float64 {
	r := make([]float64, len(t))
	for i, v := range t {
		r[len(t)-1-i] = v
	}
	return r
}

// LowpassTaps designs a windowed-sinc linear-phase lowpass FIR with the
// given normalized cutoff (cycles/sample, 0 < cutoff < 0.5) and ntaps taps
// (odd recommended), using a Hamming window. Taps are normalized to unity
// DC gain. Designs are cached by (cutoff, ntaps); the returned slice is
// the caller's copy.
func LowpassTaps(cutoff float64, ntaps int) []float64 {
	key := lowpassKey{cutoff, ntaps}
	if m, ok := lowpassTapCache.Load(key); ok {
		return slices.Clone(m.([]float64))
	}
	taps := designLowpassTaps(cutoff, ntaps)
	master, _ := lowpassTapCache.LoadOrStore(key, taps)
	return slices.Clone(master.([]float64))
}

// designLowpassTaps computes a lowpass design (uncached).
func designLowpassTaps(cutoff float64, ntaps int) []float64 {
	if cutoff <= 0 || cutoff >= 0.5 {
		panic("dsp: LowpassTaps cutoff must be in (0, 0.5)")
	}
	if ntaps < 1 {
		panic("dsp: LowpassTaps needs ntaps >= 1")
	}
	w := Hamming(ntaps)
	taps := make([]float64, ntaps)
	mid := float64(ntaps-1) / 2
	var sum float64
	for i := range taps {
		taps[i] = 2 * cutoff * Sinc(2*cutoff*(float64(i)-mid)) * w[i]
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}
