package frontend

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func TestADCQuantizesToGrid(t *testing.T) {
	adc := NewADC(8, 1)
	in := dsp.Vec{complex(0.123456, -0.654321)}
	out := adc.ConvertInto(dsp.NewVec(len(in)), in)
	step := 2.0 / 256
	re := real(out[0]) / step
	if math.Abs(re-math.Round(re)) > 1e-9 {
		t.Fatalf("not on grid: %v", out[0])
	}
	if math.Abs(real(out[0])-0.123456) > step/2 {
		t.Fatal("quantization error exceeds half step")
	}
}

func TestADCClips(t *testing.T) {
	adc := NewADC(8, 1)
	out := adc.ConvertInto(dsp.NewVec(1), dsp.Vec{complex(5, -5)})
	if real(out[0]) > 1 || imag(out[0]) < -1 {
		t.Fatalf("no clipping: %v", out[0])
	}
}

func TestADCSQNR(t *testing.T) {
	// Measured quantization SNR of a full-scale tone should be within a
	// few dB of 6.02b+1.76.
	bits := 10
	adc := NewADC(bits, 1)
	n := 8192
	in := dsp.NewVec(n)
	for i := range in {
		ph := 2 * math.Pi * float64(i) * 0.01234
		in[i] = complex(math.Cos(ph), math.Sin(ph)) * 0.99
	}
	out := adc.ConvertInto(dsp.NewVec(len(in)), in)
	var sig, noise float64
	for i := range in {
		sig += real(in[i])*real(in[i]) + imag(in[i])*imag(in[i])
		d := out[i] - in[i]
		noise += real(d)*real(d) + imag(d)*imag(d)
	}
	got := 10 * math.Log10(sig/noise)
	want := 6.02*float64(bits) + 1.76
	if math.Abs(got-want) > 3 {
		t.Fatalf("SQNR %g dB, theory %g dB", got, want)
	}
}

func TestADCValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewADC(1, 1) },
		func() { NewADC(25, 1) },
		func() { NewADC(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDACRoundTrip(t *testing.T) {
	dac := NewDAC(12, 1)
	in := dsp.Vec{complex(0.5, -0.25)}
	out := dac.ConvertInto(dsp.NewVec(len(in)), in)
	if cmplx.Abs(out[0]-in[0]) > 1e-3 {
		t.Fatalf("DAC error too large: %v", out[0])
	}
}

func TestCarrierPlanFrequencies(t *testing.T) {
	p := CarrierPlan{Carriers: 6, Spacing: 0.125, Decim: 8}
	// Symmetric around DC.
	for c := 0; c < p.Carriers; c++ {
		if math.Abs(p.Freq(c)+p.Freq(p.Carriers-1-c)) > 1e-12 {
			t.Fatalf("plan not symmetric at %d", c)
		}
	}
	if math.Abs(p.Freq(1)-p.Freq(0)-p.Spacing) > 1e-12 {
		t.Fatal("spacing")
	}
}

func TestMuxDemuxRoundTrip(t *testing.T) {
	plan := CarrierPlan{Carriers: 4, Spacing: 0.125, Decim: 4}
	mux := NewMux(plan, 95)
	demux := NewDemux(plan, 95)

	// Distinct constant levels per carrier.
	n := 512
	carriers := make([]dsp.Vec, plan.Carriers)
	for c := range carriers {
		carriers[c] = dsp.NewVec(n)
		for i := range carriers[c] {
			carriers[c][i] = complex(float64(c+1)*0.2, 0)
		}
	}
	wide := mux.ProcessInto(dsp.NewVec(mux.OutLen(n)), carriers)
	split := demux.Process(wide)

	for c := range carriers {
		// Compare the steady-state tail (skip both filter transients).
		tail := split[c][len(split[c])-20:]
		want := complex(float64(c+1)*0.2, 0)
		for i, s := range tail {
			if cmplx.Abs(s-want) > 0.05 {
				t.Fatalf("carrier %d sample %d: %v want %v", c, i, s, want)
			}
		}
	}
}

func TestDemuxIsolation(t *testing.T) {
	plan := CarrierPlan{Carriers: 4, Spacing: 0.125, Decim: 4}
	mux := NewMux(plan, 95)
	demux := NewDemux(plan, 95)
	n := 512
	carriers := make([]dsp.Vec, plan.Carriers)
	for c := range carriers {
		carriers[c] = dsp.NewVec(n)
	}
	// Only carrier 2 active.
	for i := range carriers[2] {
		carriers[2][i] = 1
	}
	split := demux.Process(mux.ProcessInto(dsp.NewVec(mux.OutLen(n)), carriers))
	for c := range carriers {
		tailP := split[c][len(split[c])-30:].Power()
		if c == 2 && tailP < 0.8 {
			t.Fatalf("active carrier power %g", tailP)
		}
		if c != 2 && tailP > 0.01 {
			t.Fatalf("carrier %d leakage power %g", c, tailP)
		}
	}
}

func TestPropertyADCMonotone(t *testing.T) {
	adc := NewADC(8, 1)
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 1), math.Mod(b, 1)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		q := adc.ConvertInto(dsp.NewVec(2), dsp.Vec{complex(a, 0), complex(b, 0)})
		return real(q[0]) <= real(q[1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
