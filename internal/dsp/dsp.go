// Package dsp provides the baseband digital signal processing substrate used
// by the software-radio payload: complex vector utilities, FIR filtering,
// root-raised-cosine pulse shaping, numerically controlled oscillators,
// polynomial (Farrow) interpolation and channel impairment models.
//
// All processing is performed on complex128 baseband samples. RF and IF
// stages of the payload are modelled as exact frequency translations; the
// paper's software-radio argument concerns the digital functions only.
package dsp

import "math"

// Vec is a block of complex baseband samples.
type Vec []complex128

// NewVec allocates a zeroed sample block of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec { return append(Vec(nil), v...) }

// Scale multiplies every sample by g in place and returns v.
func (v Vec) Scale(g complex128) Vec {
	for i := range v {
		v[i] *= g
	}
	return v
}

// Add adds w to v element-wise in place and returns v.
// It panics if the lengths differ.
func (v Vec) Add(w Vec) Vec {
	if len(v) != len(w) {
		panic("dsp: Vec.Add length mismatch")
	}
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Energy returns the total energy sum |v[i]|^2.
func (v Vec) Energy() float64 {
	var e float64
	for _, s := range v {
		e += real(s)*real(s) + imag(s)*imag(s)
	}
	return e
}

// Power returns the mean power of the block, or 0 for an empty block.
func (v Vec) Power() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Energy() / float64(len(v))
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// Sinc returns sin(pi x)/(pi x) with Sinc(0) = 1.
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// Hamming returns the n-point Hamming window.
func Hamming(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}
