package frontend

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func TestADCQuantizesToGrid(t *testing.T) {
	adc := NewADC(8, 1)
	in := dsp.Vec{complex(0.123456, -0.654321)}
	out := adc.Convert(in)
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
	out := adc.Convert(dsp.Vec{complex(5, -5)})
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
	out := adc.Convert(in)
	var sig, noise float64
	for i := range in {
		sig += real(in[i])*real(in[i]) + imag(in[i])*imag(in[i])
		d := out[i] - in[i]
		noise += real(d)*real(d) + imag(d)*imag(d)
	}
	got := 10 * math.Log10(sig/noise)
	want := adc.TheoreticalSQNRdB()
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
	out := dac.Convert(in)
	if cmplx.Abs(out[0]-in[0]) > 1e-3 {
		t.Fatalf("DAC error too large: %v", out[0])
	}
}

func TestDBFNMainLobeGain(t *testing.T) {
	d := NewDBFN(8, 0.5)
	beam := d.AddBeam(0.3)
	if g := d.ArrayResponse(beam, 0.3); math.Abs(g-1) > 1e-9 {
		t.Fatalf("in-beam gain %g", g)
	}
}

func TestDBFNRejectsOffBeam(t *testing.T) {
	d := NewDBFN(8, 0.5)
	beam := d.AddBeam(0.0)
	// First null of an 8-element array at sin(theta) = lambda/(N d).
	null := math.Asin(1.0 / (8 * 0.5))
	if g := d.ArrayResponse(beam, null); g > 0.01 {
		t.Fatalf("null response %g", g)
	}
	if g := d.ArrayResponse(beam, 0.6); g > 0.4 {
		t.Fatalf("far off-beam response %g", g)
	}
}

func TestDBFNFormRecoversSignal(t *testing.T) {
	d := NewDBFN(8, 0.5)
	angle := 0.25
	beam := d.AddBeam(angle)
	rng := rand.New(rand.NewSource(1))
	sig := dsp.NewVec(256)
	for i := range sig {
		sig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	elements := PlaneWave(sig, 8, 0.5, angle)
	got := d.Form(beam, elements)
	for i := range sig {
		if cmplx.Abs(got[i]-sig[i]) > 1e-9 {
			t.Fatalf("beamformed output differs at %d", i)
		}
	}
}

func TestDBFNSuppressesInterferer(t *testing.T) {
	d := NewDBFN(16, 0.5)
	beam := d.AddBeam(0.0)
	rng := rand.New(rand.NewSource(2))
	want := dsp.NewVec(512)
	for i := range want {
		want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	interf := dsp.NewVec(512)
	for i := range interf {
		interf[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 3
	}
	elements := PlaneWave(want, 16, 0.5, 0.0)
	interfElems := PlaneWave(interf, 16, 0.5, 0.5)
	for k := range elements {
		elements[k].Add(interfElems[k])
	}
	got := d.Form(beam, elements)
	// Residual interference power must be well below the signal power.
	var errP float64
	for i := range want {
		d := got[i] - want[i]
		errP += real(d)*real(d) + imag(d)*imag(d)
	}
	errP /= float64(len(want))
	sigP := want.Power()
	if errP > sigP*0.2 {
		t.Fatalf("interferer not suppressed: err %g signal %g", errP, sigP)
	}
}

func TestDBFNMultipleBeams(t *testing.T) {
	d := NewDBFN(8, 0.5)
	b0 := d.AddBeam(-0.2)
	b1 := d.AddBeam(0.2)
	if d.Beams() != 2 || b0 == b1 {
		t.Fatal("beam bookkeeping")
	}
}

func TestDBFNValidation(t *testing.T) {
	d := NewDBFN(4, 0.5)
	d.AddBeam(0)
	for _, f := range []func(){
		func() { d.Form(1, make([]dsp.Vec, 4)) },
		func() { d.Form(0, make([]dsp.Vec, 3)) },
		func() {
			e := []dsp.Vec{dsp.NewVec(4), dsp.NewVec(4), dsp.NewVec(4), dsp.NewVec(5)}
			d.Form(0, e)
		},
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
	wide := mux.Process(carriers)
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
	split := demux.Process(mux.Process(carriers))
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
		qa := real(adc.Convert(dsp.Vec{complex(a, 0)})[0])
		qb := real(adc.Convert(dsp.Vec{complex(b, 0)})[0])
		return qa <= qb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
