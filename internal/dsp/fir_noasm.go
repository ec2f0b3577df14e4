//go:build !amd64

package dsp

// dot8 is dot4 over the eight windows of w that start at 0, s, …, 7s.
func dot8(w Vec, s int, t []float64, y *[8]complex128) {
	y[0], y[1], y[2], y[3] = dot4(w, s, t)
	y[4], y[5], y[6], y[7] = dot4(w[4*s:], s, t)
}
