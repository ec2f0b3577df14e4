package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The Farrow interpolator as it was written with complex division and a
// clamping closure per sample, kept as the reference: Interp, InterpAt
// and the channel's fractional delay must match it bit for bit.

func refInterp(x0, x1, x2, x3 complex128, mu float64) complex128 {
	m := complex(mu, 0)
	c0 := x1
	c1 := x2 - x0/3 - x1/2 - x3/6
	c2 := (x0+x2)/2 - x1
	c3 := (x3-x0)/6 + (x1-x2)/2
	return ((c3*m+c2)*m+c1)*m + c0
}

func refInterpAt(x Vec, pos float64) complex128 {
	if len(x) == 0 {
		return 0
	}
	i := int(pos)
	if i < 0 {
		i = 0
	}
	if i > len(x)-1 {
		i = len(x) - 1
	}
	idx := func(k int) complex128 {
		if k < 0 {
			k = 0
		}
		if k > len(x)-1 {
			k = len(x) - 1
		}
		return x[k]
	}
	return refInterp(idx(i-1), idx(i), idx(i+1), idx(i+2), pos-float64(i))
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// signedZeroSample draws a component from a set rich in ±0 (and values
// whose differences cancel to ±0) or a random normal.
func signedZeroSample(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1, -1, 0.5, -3}[rng.Intn(4)]
	default:
		return rng.NormFloat64()
	}
}

func TestFarrowInterpMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	draw := func() complex128 { return complex(signedZeroSample(rng), signedZeroSample(rng)) }
	var f Farrow
	for n := 0; n < 200000; n++ {
		x0, x1, x2, x3 := draw(), draw(), draw(), draw()
		mu := []float64{0, math.Copysign(0, -1), 0.5, rng.Float64()}[rng.Intn(4)]
		if got, want := f.Interp(x0, x1, x2, x3, mu), refInterp(x0, x1, x2, x3, mu); !sameBits(got, want) {
			t.Fatalf("Interp(%v, %v, %v, %v, %v) = %v, reference %v", x0, x1, x2, x3, mu, got, want)
		}
	}
}

// divInterp is Interp with its halvings written as divReal(·, 2), the
// reference for halve on every input, non-finite ones included.
func divInterp(x0, x1, x2, x3 complex128, mu float64) complex128 {
	m := complex(mu, 0)
	c0 := x1
	c1 := x2 - divReal(x0, 3) - divReal(x1, 2) - divReal(x3, 6)
	c2 := divReal(x0+x2, 2) - x1
	c3 := divReal(x3-x0, 6) + divReal(x1-x2, 2)
	return ((c3*m+c2)*m+c1)*m + c0
}

func TestFarrowHalveMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	specials := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1.8p-1070,
		0x1.fffp-1023, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return math.Ldexp(rng.NormFloat64(), rng.Intn(2100)-1075) // subnormal to overflowing
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	var f Farrow
	for n := 0; n < 200000; n++ {
		x0, x1, x2, x3 := complex(draw(), draw()), complex(draw(), draw()), complex(draw(), draw()), complex(draw(), draw())
		mu := []float64{0, math.Copysign(0, -1), rng.Float64()}[rng.Intn(3)]
		got, want := f.Interp(x0, x1, x2, x3, mu), divInterp(x0, x1, x2, x3, mu)
		if !same(real(got), real(want)) || !same(imag(got), imag(want)) {
			t.Fatalf("Interp(%v, %v, %v, %v, %v) = %v, divided %v", x0, x1, x2, x3, mu, got, want)
		}
		if h, d := halve(x1), divReal(x1, 2); !same(real(h), real(d)) || !same(imag(h), imag(d)) {
			t.Fatalf("halve(%v) = %v, divReal %v", x1, h, d)
		}
	}
}

func TestFarrowInterpAtMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var f Farrow
	for _, n := range []int{1, 2, 3, 4, 5, 8, 64, 257} {
		x := NewVec(n)
		for i := range x {
			x[i] = complex(signedZeroSample(rng), signedZeroSample(rng))
		}
		last := float64(n - 1)
		pos := []float64{0, 0.25, 0.999, 1, 1.5, last - 1.75, last - 1, last - 0.5, last - 1e-9, last}
		for k := 0; k < 200; k++ {
			pos = append(pos, rng.Float64()*last)
		}
		for _, p := range pos {
			if p < 0 {
				continue
			}
			if got, want := f.InterpAt(x, p), refInterpAt(x, p); !sameBits(got, want) {
				t.Fatalf("len %d pos %v: %v, reference %v", n, p, got, want)
			}
		}
	}
}

func TestChannelFractionalDelayMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := NewVec(97)
	for i := range in {
		in[i] = complex(signedZeroSample(rng), signedZeroSample(rng))
	}
	c := NewChannel(1)
	for _, mu := range []float64{0.3, 0.999, -0.4, -2.6, 1.5, 3.25, 120.5, -130.5} {
		got := in.Clone()
		c.fractionalDelayInPlace(got, mu)
		shift := int(math.Floor(mu))
		frac := mu - float64(shift)
		for i := range got {
			idx := func(k int) complex128 { return in[min(max(k, 0), len(in)-1)] }
			b := i + shift
			if want := refInterp(idx(b-1), idx(b), idx(b+1), idx(b+2), frac); !sameBits(got[i], want) {
				t.Fatalf("mu %v sample %d: %v, reference %v", mu, i, got[i], want)
			}
		}
	}
}
