package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g want %g (tol %g)", msg, got, want, tol)
	}
}

func TestVecEnergyPower(t *testing.T) {
	v := Vec{1, 1i, complex(1, 1)}
	approx(t, v.Energy(), 4, 1e-12, "energy")
	approx(t, v.Power(), 4.0/3, 1e-12, "power")
	if (Vec{}).Power() != 0 {
		t.Fatal("empty power must be 0")
	}
}

func TestVecScaleAdd(t *testing.T) {
	v := Vec{1, 2i}.Scale(2)
	if v[0] != 2 || v[1] != 4i {
		t.Fatalf("scale: %v", v)
	}
	v.Add(Vec{1, 1})
	if v[0] != 3 || v[1] != complex(1, 4) {
		t.Fatalf("add: %v", v)
	}
}

func TestVecAddPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Vec{1}.Add(Vec{1, 2})
}

func TestDBRoundTrip(t *testing.T) {
	approx(t, FromDB(10), 10, 1e-12, "10 dB = 10 lin")
	approx(t, FromDB(-3), 0.5, 2e-3, "-3 dB = half power")
}

func TestSinc(t *testing.T) {
	approx(t, Sinc(0), 1, 0, "sinc(0)")
	approx(t, Sinc(1), 0, 1e-15, "sinc(1)")
	approx(t, Sinc(0.5), 2/math.Pi, 1e-12, "sinc(0.5)")
}

func TestWindowsEndpointsAndSymmetry(t *testing.T) {
	for _, n := range []int{5, 16, 33} {
		w := Hamming(n)
		for i := 0; i < n/2; i++ {
			if math.Abs(w[i]-w[n-1-i]) > 1e-12 {
				t.Fatalf("n=%d asymmetric at %d", n, i)
			}
		}
	}
	if Hamming(1)[0] != 1 {
		t.Fatal("single point window must be 1")
	}
}

// tone returns n samples of exp(j(2 pi f k + phase)).
func tone(f, phase float64, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = 1
	}
	return NewNCO(f, phase).MixInto(v, v)
}

// newFIR is a streaming FIR over arbitrary taps: the interpolator by 1
// that MatchedFilter runs over the RRC taps.
func newFIR(taps []float64) *interpolator { return newInterpolator(taps, 1, 1) }

// firOut runs one block through a FIR into a fresh output block.
func firOut(f *interpolator, in Vec) Vec { return f.processInto(NewVec(len(in)), in) }

func TestFIRImpulseResponse(t *testing.T) {
	taps := []float64{0.25, 0.5, 0.25}
	f := newFIR(taps)
	in := NewVec(8)
	in[0] = 1
	out := firOut(f, in)
	for i, want := range taps {
		approx(t, real(out[i]), want, 1e-12, "impulse tap")
		_ = i
	}
	for i := len(taps); i < len(out); i++ {
		if out[i] != 0 {
			t.Fatalf("tail not zero at %d", i)
		}
	}
}

func TestFIRStreamingEqualsOneShot(t *testing.T) {
	taps := LowpassTaps(0.2, 31)
	one := newFIR(taps)
	chunked := newFIR(taps)
	in := NewVec(100)
	for i := range in {
		in[i] = complex(math.Sin(float64(i)*0.3), math.Cos(float64(i)*0.17))
	}
	ref := firOut(one, in)
	var got Vec
	for _, sz := range []int{7, 13, 1, 29, 50} {
		got = append(got, firOut(chunked, in[len(got):min(len(got)+sz, len(in))])...)
		if len(got) >= len(in) {
			break
		}
	}
	got = append(got, firOut(chunked, in[len(got):])...)
	if len(got) != len(ref) {
		t.Fatalf("length mismatch %d vs %d", len(got), len(ref))
	}
	for i := range ref {
		if cmplx.Abs(got[i]-ref[i]) > 1e-12 {
			t.Fatalf("chunked output differs at %d", i)
		}
	}
}

func TestFIRResetAndTaps(t *testing.T) {
	f := newFIR([]float64{1, 1})
	firOut(f, Vec{5})
	f.reset()
	out := firOut(f, Vec{1})
	if out[0] != 1 {
		t.Fatalf("history not cleared: %v", out[0])
	}
}

func TestLowpassTapsDCGainAndRejection(t *testing.T) {
	// Steady-state gain of the filter on a tone, past the 63-tap transient.
	gain := func(f float64) float64 {
		out := firOut(newFIR(LowpassTaps(0.1, 63)), tone(f, 0, 128))
		return cmplx.Abs(out[127])
	}
	approx(t, gain(0), 1, 1e-9, "DC gain")
	if g := gain(0.4); g > 0.01 {
		t.Fatalf("stopband rejection too weak: %g", g)
	}
}

func TestRRCUnitEnergyAndSymmetry(t *testing.T) {
	taps := RRCTaps(0.35, 4, 8)
	var e float64
	for _, v := range taps {
		e += v * v
	}
	approx(t, e, 1, 1e-9, "unit energy")
	for i := 0; i < len(taps)/2; i++ {
		if math.Abs(taps[i]-taps[len(taps)-1-i]) > 1e-12 {
			t.Fatalf("asymmetric at %d", i)
		}
	}
}

func TestRRCMatchedPairIsNyquist(t *testing.T) {
	// TX RRC convolved with RX RRC must be ~zero at nonzero multiples of
	// the symbol period (ISI-free raised cosine).
	sps := 4
	taps := RRCTaps(0.35, sps, 10)
	tv := NewVec(2*len(taps) - 1) // the taps, zero-padded to the full convolution
	for i, v := range taps {
		tv[i] = complex(v, 0)
	}
	rc := firOut(newFIR(taps), tv)
	centre := (len(rc) - 1) / 2
	peak := real(rc[centre])
	if peak <= 0 {
		t.Fatal("no pulse peak")
	}
	for k := 1; k <= 6; k++ {
		v := math.Abs(real(rc[centre+k*sps])) / peak
		if v > 0.01 {
			t.Fatalf("ISI at symbol offset %d: %g", k, v)
		}
	}
}

func TestRRCSingularPoints(t *testing.T) {
	// beta=0.5 puts taps exactly on the t = 1/(4 beta) = 0.5 singularity
	// when sps is even; just check the design doesn't produce NaN/Inf.
	taps := RRCTaps(0.5, 4, 8)
	for i, v := range taps {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bad tap %d: %v", i, v)
		}
	}
}

func TestPulseShaperMatchedFilterEndToEnd(t *testing.T) {
	sps, span := 4, 10
	sh := NewPulseShaper(0.35, sps, span)
	mf := NewMatchedFilter(0.35, sps, span)
	// Random QPSK-ish symbols.
	syms := Vec{1 + 1i, 1 - 1i, -1 + 1i, -1 - 1i, 1 + 1i, -1 - 1i, 1 - 1i, -1 + 1i}
	syms.Scale(complex(1/math.Sqrt2, 0))
	n := 40
	tx := sh.ProcessInto(NewVec(n*sps), append(syms.Clone(), NewVec(n-len(syms))...))
	rx := mf.ProcessInto(NewVec(len(tx)), tx)
	// Total delay = shaper + matched filter group delays, the same taps.
	delay := int(2 * sh.GroupDelay())
	for i, want := range syms {
		got := rx[delay+i*sps]
		if cmplx.Abs(got-want) > 0.05 {
			t.Fatalf("symbol %d: got %v want %v", i, got, want)
		}
	}
}

func TestNCOFrequencyAndPhase(t *testing.T) {
	s := tone(0.25, 0, 3)
	approx(t, real(s[0]), 1, 1e-12, "cos(0)")
	approx(t, imag(s[1]), 1, 1e-12, "quarter turn")
	approx(t, real(s[2]), -1, 1e-12, "half turn")
	approx(t, imag(tone(0, math.Pi/2, 1)[0]), 1, 1e-12, "initial phase")
}

func TestNCOMixInverts(t *testing.T) {
	up := NewNCO(0.1, 0)
	down := NewNCO(-0.1, 0)
	in := Vec{1, 1, 1, 1, 1}
	out := NewVec(len(in))
	down.MixInto(out, up.MixInto(out, in))
	for i := range in {
		if cmplx.Abs(out[i]-in[i]) > 1e-12 {
			t.Fatalf("mix round trip at %d", i)
		}
	}
}

func TestDDCRecoversBasebandTone(t *testing.T) {
	// A carrier at f=0.2 carrying DC should demodulate to ~constant.
	carrier := tone(0.2, 0, 400)
	ddc := NewDDC(0.2, 0.05, 63, 1)
	out := ddcOut(ddc, carrier)
	// Skip the filter transient, then expect near-constant magnitude 1.
	for i := 200; i < len(out); i++ {
		if math.Abs(cmplx.Abs(out[i])-1) > 0.02 {
			t.Fatalf("sample %d magnitude %g", i, cmplx.Abs(out[i]))
		}
	}
}

func TestDDCDecimation(t *testing.T) {
	ddc := NewDDC(0.2, 0.05, 31, 4)
	out := ddc.ProcessInto(NewVec(25), NewVec(100))
	if len(out) != 25 || ddc.OutLen(100) != 25 {
		t.Fatalf("output length %d", len(out))
	}
}

func TestDUCDDCRoundTrip(t *testing.T) {
	duc := NewDUC(0.2, 0.1, 63, 2)
	ddc := NewDDC(0.2, 0.1, 63, 2)
	in := NewVec(64)
	for i := range in {
		in[i] = 1
	}
	rx := ddcOut(ddc, ducOut(duc, in))
	// After both filter transients the round trip should be ~unity.
	last := rx[len(rx)-1]
	if math.Abs(cmplx.Abs(last)-1) > 0.05 {
		t.Fatalf("round trip gain %g", cmplx.Abs(last))
	}
}

func TestFarrowExactOnCubic(t *testing.T) {
	// Cubic interpolation must be exact for polynomials up to degree 3.
	poly := func(x float64) float64 { return 2 + 3*x - 0.5*x*x + 0.25*x*x*x }
	var f Farrow
	x0, x1, x2, x3 := complex(poly(-1), 0), complex(poly(0), 0), complex(poly(1), 0), complex(poly(2), 0)
	for _, mu := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		got := f.Interp(x0, x1, x2, x3, mu)
		approx(t, real(got), poly(mu), 1e-9, "cubic exactness")
	}
}

func TestFarrowInterpAtEdges(t *testing.T) {
	var f Farrow
	x := Vec{1, 2, 3}
	if got := f.InterpAt(x, 0); cmplx.Abs(got-1) > 1e-9 {
		t.Fatalf("edge 0: %v", got)
	}
	if got := f.InterpAt(Vec{}, 1); got != 0 {
		t.Fatal("empty vec must give 0")
	}
}

func TestChannelNoiseVariance(t *testing.T) {
	c := NewChannel(1)
	c.EsN0dB = 10
	c.SPS = 1
	n := 200000
	in := NewVec(n)
	for i := range in {
		in[i] = 1
	}
	out := c.Apply(in)
	// Measured noise power should be ~ signal power / (Es/N0) = 0.1.
	var np float64
	for i := range out {
		d := out[i] - in[i]
		np += real(d)*real(d) + imag(d)*imag(d)
	}
	np /= float64(n)
	approx(t, np, 0.1, 0.01, "noise power")
}

func TestChannelDeterministicUnderSeed(t *testing.T) {
	mk := func() Vec {
		c := NewChannel(42)
		c.EsN0dB = 5
		in := NewVec(32)
		for i := range in {
			in[i] = 1
		}
		return c.Apply(in)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("channel not deterministic under fixed seed")
		}
	}
}

func TestChannelPhaseOffset(t *testing.T) {
	c := NewChannel(7)
	c.PhaseOffset = math.Pi / 2
	out := c.Apply(Vec{1})
	if cmplx.Abs(out[0]-1i) > 1e-9 {
		t.Fatalf("phase rotation: %v", out[0])
	}
}
