package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func rmsDiff(a, b Vec) float64 {
	if len(a) != len(b) {
		panic("rmsDiff length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s / float64(len(a)))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 255: 256, 256: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// The forward transform inverts itself up to conjugation and scale:
// x = conj(FFT(conj(FFT(x)))) / n.
func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conj := func(v Vec) Vec {
		for i := range v {
			v[i] = cmplx.Conj(v[i])
		}
		return v
	}
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := randVec(rng, n)
		z := NewVec(n)
		FFTForward(z, x)
		FFTForward(z, conj(z))
		conj(z).Scale(complex(1/float64(n), 0))
		if d := rmsDiff(z, x); d > 1e-12 {
			t.Fatalf("n=%d round-trip RMS %g", n, d)
		}
	}
}

func TestFFTInPlaceMatchesOutOfPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randVec(rng, 512)
	out := NewVec(512)
	FFTForward(out, x)
	inplace := append(Vec(nil), x...)
	FFTForward(inplace, inplace)
	if d := rmsDiff(inplace, out); d != 0 {
		t.Fatalf("in-place forward differs, RMS %g", d)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 256
	x := randVec(rng, n)
	X := NewVec(n)
	FFTForward(X, x)
	var et, ef float64
	for i := range x {
		et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
	}
	ef /= float64(n)
	if math.Abs(et-ef)/et > 1e-12 {
		t.Fatalf("Parseval violated: time %g freq %g", et, ef)
	}
}

func TestFFTImpulseAndLinearity(t *testing.T) {
	n := 128
	// Impulse at 0 transforms to all ones.
	x := NewVec(n)
	x[0] = 1
	X := NewVec(n)
	FFTForward(X, x)
	for k := range X {
		if cmplx.Abs(X[k]-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v", k, X[k])
		}
	}
	// Impulse at m transforms to e^{-2πikm/n}.
	m := 5
	x[0], x[m] = 0, 1
	FFTForward(X, x)
	for k := range X {
		want := cmplx.Exp(complex(0, -2*math.Pi*float64(k*m)/float64(n)))
		if cmplx.Abs(X[k]-want) > 1e-12 {
			t.Fatalf("shifted impulse bin %d = %v want %v", k, X[k], want)
		}
	}
	// Linearity: FFT(a·u + b·v) = a·FFT(u) + b·FFT(v).
	rng := rand.New(rand.NewSource(4))
	u, v := randVec(rng, n), randVec(rng, n)
	a, b := complex(1.5, -0.25), complex(-0.75, 2)
	mix := NewVec(n)
	for i := range mix {
		mix[i] = a*u[i] + b*v[i]
	}
	U, V, M := NewVec(n), NewVec(n), NewVec(n)
	FFTForward(U, u)
	FFTForward(V, v)
	FFTForward(M, mix)
	for k := range M {
		if cmplx.Abs(M[k]-(a*U[k]+b*V[k])) > 1e-9 {
			t.Fatalf("linearity broken at bin %d", k)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	x := randVec(rng, n)
	X := NewVec(n)
	FFTForward(X, x)
	for k := 0; k < n; k++ {
		var want complex128
		for i := 0; i < n; i++ {
			want += x[i] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*i)/float64(n)))
		}
		if cmplx.Abs(X[k]-want) > 1e-9 {
			t.Fatalf("bin %d: fft %v dft %v", k, X[k], want)
		}
	}
}

func TestFFTZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	x := randVec(rand.New(rand.NewSource(9)), 1024)
	y := NewVec(1024)
	FFTForward(y, x) // warm the plan cache
	allocs := testing.AllocsPerRun(50, func() {
		FFTForward(y, x)
	})
	if allocs != 0 {
		t.Fatalf("FFT allocates %v per run", allocs)
	}
}
