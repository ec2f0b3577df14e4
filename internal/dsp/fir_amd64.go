package dsp

// dot8 is dot4 over eight windows, in SSE2 (fir_amd64.s); len(w) >= 7s+len(t).
//
//go:noescape
func dot8(w Vec, s int, t []float64, y *[8]complex128)
