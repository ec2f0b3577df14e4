package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refFilter is filterInto's definition: one dotReal per output.
func refFilter(dst Vec, ds int, x Vec, xs int, t []float64, n int) {
	for k := 0; k < n; k++ {
		dst[k*ds] = dotReal(x[k*xs:], t)
	}
}

// sameFloat reports whether a and b are the same float64, bit for bit,
// or both NaN (the kernels may propagate different NaN payloads).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkFilterInto runs filterInto and refFilter on the same shape and
// fails on the first output that differs from the reference, or on any
// dst sample between outputs that filterInto wrote.
func checkFilterInto(t *testing.T, ds int, x Vec, xs int, taps []float64, n int) {
	t.Helper()
	m := max((n-1)*ds+1, 0)
	got, want := NewVec(m), NewVec(m)
	sentinel := complex(math.Pi, -math.E)
	for i := range got {
		got[i], want[i] = sentinel, sentinel
	}
	filterInto(got, ds, x, xs, taps, n)
	refFilter(want, ds, x, xs, taps, n)
	for i := range got {
		g, w := got[i], want[i]
		if !sameFloat(real(g), real(w)) || !sameFloat(imag(g), imag(w)) {
			t.Fatalf("taps %d, xs %d, ds %d, n %d: dst[%d] = %v, dotReal gives %v", len(taps), xs, ds, n, i, g, w)
		}
	}
}

// signedMag draws ±0 one time in eight, otherwise a magnitude from 1e-4
// to 1e3, log-uniform, with a random sign.
func signedMag(rng *rand.Rand) float64 {
	v := math.Pow(10, -4+7*rng.Float64())
	if rng.Intn(8) == 0 {
		v = 0
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// The eight-window kernel, the four-window one and the single output are
// dotReal, bit for bit, at every tap count, input stride (FIR,
// decimator), output stride (interpolator branch) and output count that
// reaches all three.
func TestFilterIntoMatchesDotReal(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for nt := 1; nt <= 100; nt++ {
		taps := make([]float64, nt)
		for i := range taps {
			taps[i] = signedMag(rng)
		}
		for xs := 1; xs <= 5; xs++ {
			x := NewVec(60*xs + nt)
			for i := range x {
				x[i] = complex(signedMag(rng), signedMag(rng))
			}
			for ds := 1; ds <= 5; ds++ {
				for n := (nt + xs + ds) % 7; n <= 60; n += 7 {
					checkFilterInto(t, ds, x, xs, taps, n)
				}
			}
		}
	}
}

// FuzzFilterInto holds filterInto to dotReal on arbitrary float bit
// patterns: ±Inf, NaN, subnormals and ±0 included.
func FuzzFilterInto(f *testing.F) {
	specials := []uint64{
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), math.Float64bits(math.NaN()),
		1 << 63, 0, 1, 0x000fffffffffffff, math.Float64bits(math.MaxFloat64), math.Float64bits(-1.5),
		math.Float64bits(1e-300), math.Float64bits(3.25), math.Float64bits(-1e300),
	}
	for i, shape := range [][4]byte{{0, 0, 0, 20}, {40, 3, 2, 13}, {94, 1, 0, 60}, {7, 4, 4, 9}} {
		seed := shape[:]
		for j := 0; j < 3*len(specials); j++ {
			seed = binary.LittleEndian.AppendUint64(seed, specials[(i+j*5)%len(specials)])
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nt, xs, ds, n := 1+int(data[0])%100, 1+int(data[1])%5, 1+int(data[2])%5, int(data[3])%61
		vals, pos := data[4:], 0
		next := func() float64 { // the value bytes, eight at a time, cycled
			if len(vals) < 8 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals[pos:]))
			pos = (pos + 8) % (len(vals) - 7)
			return v
		}
		taps := make([]float64, nt)
		for i := range taps {
			taps[i] = next()
		}
		x := NewVec(max(n-1, 0)*xs + nt)
		for i := range x {
			x[i] = complex(next(), next())
		}
		checkFilterInto(t, ds, x, xs, taps, n)
	})
}
