package dsp

// Farrow is a cubic Lagrange polynomial interpolator used by timing
// recovery to resample the matched-filter output at the estimated symbol
// instants. Fractional delay mu in [0,1) is applied between the two middle
// samples of a 4-sample window.
type Farrow struct{}

// Interp evaluates the interpolant at offset mu in [0,1) past sample x1,
// given the 4-point neighbourhood x0 (earliest) .. x3 (latest).
func (Farrow) Interp(x0, x1, x2, x3 complex128, mu float64) complex128 {
	// Cubic Lagrange coefficients (Farrow structure, basepoint x1).
	m := complex(mu, 0)
	c0 := x1
	c1 := x2 - divReal(x0, 3) - halve(x1) - divReal(x3, 6)
	c2 := halve(x0+x2) - x1
	c3 := divReal(x3-x0, 6) + halve(x1-x2)
	return ((c3*m+c2)*m+c1)*m + c0
}

// divReal is n/complex(d, 0) for a positive real d, written out as the
// runtime's complex division computes it for a zero imaginary divisor,
// so the result is the same for every finite n (signed zeros included)
// without the call.
func divReal(n complex128, d float64) complex128 {
	re, im := real(n), imag(n)
	return complex((re+im*0)/d, (im-re*0)/d)
}

// halve is divReal(n, 2) multiplying by 0.5, which is exact: product
// and quotient are one real number, rounded alike.
func halve(n complex128) complex128 {
	re, im := real(n), imag(n)
	return complex((re+im*0)*0.5, (im-re*0)*0.5)
}

// InterpAt resamples the block x at fractional index pos (0 <= pos <=
// len(x)-1) using cubic interpolation, clamping the neighbourhood at the
// block edges.
func (f Farrow) InterpAt(x Vec, pos float64) complex128 {
	if len(x) == 0 {
		return 0
	}
	i := min(max(int(pos), 0), len(x)-1)
	x0, x1, x2, x3 := window(x, i)
	return f.Interp(x0, x1, x2, x3, pos-float64(i))
}

// window returns x[i-1], x[i], x[i+1], x[i+2], each index clamped into
// the block (len(x) > 0).
func window(x Vec, i int) (x0, x1, x2, x3 complex128) {
	if i >= 1 && i+2 < len(x) {
		return x[i-1], x[i], x[i+1], x[i+2]
	}
	at := func(k int) complex128 { return x[min(max(k, 0), len(x)-1)] }
	return at(i - 1), at(i), at(i + 1), at(i + 2)
}
